"""Attacker nodes: floods, scheduled prime attacks, pairing MITM, SPIT.

The flooder sends request packets (which provoke replies) at a fixed rate,
optionally with uniformly spoofed source addresses, which is why
per-source filtering at the victim goes nowhere. The scheduled attacker
hits the victim's prime address for a few hours daily. At packet level it
really floods and the victim's detection blocks the prime; at schedule
granularity the victim's policy blocks the prime for the drawn window
(`block_prime_window`, which the scenario's explicit mode uses too), and
the home agent drops every address request that arrives meanwhile.

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

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .addressing import Ipv6Address
from .caller import CallerNode
from .engine import US_PER_SECOND, Node, Packet, SimTime, Simulator
from .messages import Ping, record
from .mobile_host import MobileHost, WindowBlock, WindowUnblock
from .sas import (
    CommitMessage,
    DirectChannel,
    RevealMessage,
    SasAbort,
    ShareMessage,
    commitment,
    run_pairing,
)


@dataclass(slots=True)
class FloodStats:
    sent: int = 0
    replies_received: int = 0


@record
class _Emit(NamedTuple):
    stop_us: int
    target: Ipv6Address
    interval_s: float
    payload_size: int
    spoof: bool


class Flooder(Node):
    """Emits pings at a fixed rate inside one or more windows."""

    def __init__(self, sim: Simulator, node_id: str, address: Ipv6Address):
        super().__init__(sim, node_id)
        self.address = address
        self.stats = FloodStats()
        sim.register_route(address, node_id)

    def flood_between(self, start: SimTime, stop: SimTime, target: Ipv6Address,
                      rate_pps: float, payload_size: int = 56,
                      spoof: bool = False) -> None:
        if rate_pps <= 0:
            raise ValueError("flood rate must be positive")
        interval_us = round(1.0 / rate_pps * US_PER_SECOND)
        if interval_us == 0:
            raise ValueError(f"flood rate {rate_pps} pkt/s is under 1 us apart")
        if stop < start:
            raise ValueError("flood stops before it starts")
        count = -((start.micros - stop.micros) // interval_us)
        if spoof or not self.sim.flood(
                self.node_id,
                Packet(self.address, target, Ping(self.stats.sent), payload_size),
                start.micros, interval_us, count):
            self._flood_packets(start, stop, target, rate_pps, payload_size,
                                spoof)

    def _flood_packets(self, start: SimTime, stop: SimTime,
                       target: Ipv6Address, rate_pps: float,
                       payload_size: int, spoof: bool) -> None:
        """The per-packet path: a timer per packet; the reference segments
        are tested against. Like a segment, it wakes no more once its last
        packet is out."""
        if start < stop:
            self.sim.call_at(start, self.node_id,
                             _Emit(stop_us=stop.micros, target=target,
                                   interval_s=1.0 / rate_pps,
                                   payload_size=payload_size, spoof=spoof))

    def on_timer(self, token: object) -> None:
        if not isinstance(token, _Emit):
            return
        sim = self.sim
        if token.spoof:
            src = Ipv6Address(sim.rng.getrandbits(64), sim.rng.getrandbits(64))
        else:
            src = self.address
        stats = self.stats
        sim.send(Packet(src=src, dst=token.target, payload=Ping(stats.sent),
                        size_bytes=token.payload_size))
        stats.sent += 1
        if sim.now.micros + round(token.interval_s * US_PER_SECOND) < token.stop_us:
            sim.call_in(token.interval_s, self.node_id, token)

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

    def run_fate(self, packet: Packet) -> Packet | None:
        return None if packet.dst == self.address else packet


@dataclass(frozen=True, slots=True)
class AttackSchedule:
    """Daily attack window: fixed duration, start drawn from a small set."""

    daily_hours: int
    start_choices: tuple[int, ...]

    def __post_init__(self):
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


@record
class WindowLog(NamedTuple):
    day: int
    start_hour: int


def block_prime_window(sim: Simulator, victim: MobileHost, opens: SimTime,
                       closes: SimTime) -> None:
    """The victim's policy blocks its prime from `opens` until `closes`."""
    sim.call_at(opens, victim.node_id, WindowBlock())
    sim.call_at(closes, victim.node_id, WindowUnblock())


def run_scheduled_prime_attack(sim: Simulator, victim: MobileHost,
                               schedule: AttackSchedule, horizon_days: int,
                               flooder: Flooder | None = None,
                               flood_rate_pps: float = 100.0) -> list[WindowLog]:
    """Arrange the daily windows against the victim's prime address.

    With a flooder the attack is packet-level and the victim's own
    detection does the blocking; otherwise the victim's policy blocks the
    prime for exactly the drawn window.
    """
    windows = []
    for day in range(horizon_days):
        start = schedule.draw_start(sim.rng)
        windows.append(WindowLog(day=day, start_hour=start))
        opens = SimTime.at(day, start)
        closes = SimTime.at(day, start + schedule.daily_hours)
        if flooder is not None:
            flooder.flood_between(opens, closes, victim.prime, flood_rate_pps)
        else:
            block_prime_window(sim, victim, opens, closes)
    return windows


class PerSourceFilter:
    """Victim-side source blocking, the defense spoofing defeats."""

    def __init__(self, strikes: int = 1):
        self.strikes = strikes
        self.blocked: set[Ipv6Address] = set()
        self.filtered = 0
        self.passed = 0
        self._counts: dict[Ipv6Address, int] = {}

    def admit(self, src: Ipv6Address) -> bool:
        if src in self.blocked:
            self.filtered += 1
            return False
        count = self._counts.get(src, 0) + 1
        self._counts[src] = count
        if count >= self.strikes:
            self.blocked.add(src)
        self.passed += 1
        return True


class MitmStrategy(Enum):
    PASSIVE = "passive"
    RANDOM_SUBSTITUTION = "random_substitution"
    REVEAL_SUBSTITUTION = "reveal_substitution"


@record
class MitmResult(NamedTuple):
    undetected: bool
    substituted: bool
    abort_reason: SasAbort | None


class MitmChannel(DirectChannel):
    """In-path attacker for the pairing run.

    RANDOM_SUBSTITUTION plays a full double session with its own nonces and
    key material on both legs; it stays consistent with its own commitment,
    so only the out-of-band SAS comparison can catch it.
    REVEAL_SUBSTITUTION forwards the honest commitment but swaps the
    reveal, which the commitment check kills outright.
    """

    def __init__(self, rng: random.Random, strategy: MitmStrategy,
                 nonce_bytes: int = 16):
        self.strategy = strategy
        self.nonce_to_responder = rng.randbytes(nonce_bytes)
        self.nonce_to_initiator = rng.randbytes(nonce_bytes)
        self.key_to_responder = rng.randbytes(32)
        self.key_to_initiator = rng.randbytes(32)
        self.swapped_reveal = rng.randbytes(nonce_bytes)

    def forward_commit(self, msg: CommitMessage) -> CommitMessage:
        if self.strategy is MitmStrategy.RANDOM_SUBSTITUTION:
            return CommitMessage(commitment=commitment(self.nonce_to_responder),
                                 public_key=self.key_to_responder)
        return msg

    def forward_share(self, msg: ShareMessage) -> ShareMessage:
        if self.strategy is MitmStrategy.RANDOM_SUBSTITUTION:
            return ShareMessage(nonce=self.nonce_to_initiator,
                                public_key=self.key_to_initiator)
        return msg

    def forward_reveal(self, msg: RevealMessage) -> RevealMessage:
        if self.strategy is MitmStrategy.RANDOM_SUBSTITUTION:
            return RevealMessage(nonce=self.nonce_to_responder)
        if self.strategy is MitmStrategy.REVEAL_SUBSTITUTION:
            return RevealMessage(nonce=self.swapped_reveal)
        return msg


def mitm_attempt(rng: random.Random, sas_bits: int = 8,
                 strategy: MitmStrategy = MitmStrategy.RANDOM_SUBSTITUTION,
                 nonce_bytes: int = 16) -> MitmResult:
    """One randomized pairing run with the attacker in the middle."""
    initiator_key = rng.randbytes(32)
    responder_key = rng.randbytes(32)
    channel = MitmChannel(rng, strategy, nonce_bytes)
    outcome = run_pairing(rng, initiator_key, responder_key,
                          sas_bits=sas_bits, nonce_bytes=nonce_bytes,
                          channel=channel)
    return MitmResult(undetected=outcome.confirmed,
                      substituted=strategy is not MitmStrategy.PASSIVE,
                      abort_reason=outcome.abort_reason)


class SpitCaller(CallerNode):
    """Nuisance caller that legitimately obtained a disposable address.

    The protocol run is honest; the abuse is what the calls are for. After
    the victim blocks the granted address, calls black-hole, and renewed
    address requests meet the deny list.
    """

    def re_request_address(self, victim_fqdn: str, on_done) -> None:
        entry = self.entry_for(victim_fqdn)
        entry.peer_address = None
        entry.peer_known_blocked = False
        self.request_address(victim_fqdn, on_done)
