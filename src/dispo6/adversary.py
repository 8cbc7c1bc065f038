"""Attacker nodes: floods and scheduled prime attacks.

The flooder sends request packets (which provoke replies) at a fixed rate,
optionally with uniformly spoofed source addresses, which is why
per-source filtering at the victim goes nowhere. The scheduled attacker
hits the victim's prime address for a few hours daily: it floods, and the
victim's detection blocks the prime. Where a run models the block alone
(the scenario's explicit mode), `block_prime_window` has the victim's
policy block the prime for the drawn window, and the home agent drops
every address request that arrives meanwhile.

A flood is one rate segment (engine.py), not a timer per packet: its
packets leave at start + k*interval, interval = round(1e6 / rate) µs, the
step the per-packet timer takes. The home agent, the victim and the
flooder charge them in closed form and hand single packets to their
packet path only at the segment's split points: the packet that trips the
victim's monitor or empties its battery, and a route-optimizing victim's
first packet from the flooder, which it answers with a binding update.
Blocks, reactivations and care-of rotations are queued events, so the
segment changes course at them by itself; at one instant they run before
the flood's packets (the engine's tie rule). A spoofed flood draws a new
source from the simulator's PRNG for every packet and stays a timer per
packet, as does any flood the engine cannot take as a segment.
"""

import math
import random
from dataclasses import dataclass

from .addressing import Ipv6Address
from .engine import US_PER_SECOND, Node, Packet, Simulator, day_hour_us
from .messages import Ping, record
from .mobile_host import MobileHost, WindowBlock


@dataclass(slots=True)
class FloodStats:
    sent: int = 0
    replies_received: int = 0


def _interval_us(rate_pps: float) -> int:
    """The step between a flood's packets, in whole microseconds; a
    `ValueError` for a rate that has no whole, finite, positive step."""
    step_us = 1.0 / rate_pps * US_PER_SECOND if rate_pps > 0 else 0.0
    if not (math.isfinite(step_us) and round(step_us) > 0):
        raise ValueError(f"flood rate {rate_pps} pkt/s has no whole, finite, "
                         "positive number of microseconds between packets")
    return round(step_us)


class Flooder(Node):
    """Emits pings at a fixed rate inside one or more windows."""

    def __init__(self, sim: Simulator, node_id: str, address: Ipv6Address):
        super().__init__(sim, node_id)
        self.address = address
        self.stats = FloodStats()
        sim.register_route(address, node_id)

    def flood_between(self, start_us: int, stop_us: int, target: Ipv6Address,
                      rate_pps: float, spoof: bool = False) -> None:
        interval_us = _interval_us(rate_pps)
        if stop_us < start_us:
            raise ValueError("flood stops before it starts")
        count = -((start_us - stop_us) // interval_us)
        if spoof or not self.sim.flood(
                self.node_id, Packet(self.address, target, Ping()),
                start_us, interval_us, count):
            self._flood_packets(start_us, stop_us, target, interval_us, spoof)

    def _flood_packets(self, start_us: int, stop_us: int,
                       target: Ipv6Address, interval_us: int,
                       spoof: bool) -> None:
        """The per-packet path: a timer per packet; the reference segments
        are tested against. Like a segment, it wakes no more once its last
        packet is out. The timer token is (stop_us, target, interval_us,
        spoof), the only timer a flooder schedules."""
        if start_us < stop_us:
            self.sim.call_at(start_us, self.node_id,
                             (stop_us, target, interval_us, spoof))

    def on_timer(self, token: tuple) -> None:
        stop_us, target, interval_us, spoof = token
        sim = self.sim
        if spoof:
            src = Ipv6Address(sim.rng.getrandbits(64), sim.rng.getrandbits(64))
        else:
            src = self.address
        sim.send(Packet(src=src, dst=target, payload=Ping()))
        self.stats.sent += 1
        next_us = sim.now_us + interval_us
        if next_us < stop_us:
            sim.call_at(next_us, self.node_id, token)

    def on_packet(self, packet: Packet) -> None:
        # attacker ignores reply content; silence tells it nothing either
        self.stats.replies_received += 1

    def on_run(self, packet: Packet, first_us: int, interval_us: int,
               count: int) -> Packet | None:
        """Emit `count` pings of a segment, or take `count` replies."""
        if packet.dst == self.address:
            self.stats.replies_received += count
            return None
        self.stats.sent += count
        return packet


@record
class AttackSchedule:
    """Daily attack window: fixed duration, start drawn from a small set."""

    daily_hours: int
    start_choices: tuple[int, ...]

    def _check(self):
        if self.daily_hours not in (4, 6):
            raise ValueError("attack duration must be 4 or 6 hours")
        if not self.start_choices:
            raise ValueError("no start choices")
        for start in self.start_choices:
            if not (0 <= start and start + self.daily_hours <= 24):
                raise ValueError(f"window starting {start} leaves the day")

    def draw_start(self, rng: random.Random) -> int:
        return rng.choice(self.start_choices)

    def paper_rejection_probability(self) -> float:
        """Coincidence arithmetic treating both factors as window fractions."""
        return (self.daily_hours / 12.0) ** 2


FOUR_HOUR_SCHEDULE = AttackSchedule(daily_hours=4, start_choices=(8, 12, 16))
SIX_HOUR_SCHEDULE = AttackSchedule(daily_hours=6, start_choices=(8, 14))


def block_prime_window(sim: Simulator, victim: MobileHost, opens_us: int,
                       closes_us: int) -> None:
    """The victim's policy blocks its prime from `opens_us` until `closes_us`."""
    sim.call_at(opens_us, victim.node_id, WindowBlock(closes_us))


def run_scheduled_prime_attack(sim: Simulator, victim: MobileHost,
                               schedule: AttackSchedule, horizon_days: int,
                               flooder: Flooder,
                               flood_rate_pps: float) -> None:
    """Flood the victim's prime address in each day's drawn window; the
    victim's own detection does the blocking."""
    for day in range(horizon_days):
        start = schedule.draw_start(sim.rng)
        flooder.flood_between(day_hour_us(day, start),
                              day_hour_us(day, start + schedule.daily_hours),
                              victim.prime, flood_rate_pps)
