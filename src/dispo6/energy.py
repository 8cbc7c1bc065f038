"""Battery and radio power-state accounting for mobile hosts.

The ledger charges each packet the cost its host passes, and names the
radio's state ("active" until `sleep_timeout_s` passes with no traffic,
then "power_save") only in `battery.csv`. Instead of scheduling sleep/wake
events, the account integrates idle drain lazily between charges, splitting
each interval at the exact sleep-entry instant. That keeps occupancy and
drain bit-exact and deterministic regardless of event granularity. A flood
segment's pings are charged the same way, a run at a time (`charge_run`):
each ping costs its receipt and link ACK, and its pong too when the ping is
answered, and the idle draw of the gaps between them is split at the sleep
boundary like any other gap.

Costs are abstract energy units. The calibration ties the unit scale to
two measured endpoints: about a day of lifetime when idle, and a few
hours under a saturating request flood. `drain_rate` and
`lifetime_under` are the ledger's steady states in closed form; an idle
ledger lasts the calibrated day, because `p_powersave` is a napping
radio's average draw, its brief wake-ups included.
"""

import math
from pathlib import Path

from .engine import US_PER_SECOND, SimTime
from .messages import record


# what the calibration (`EnergyParams.calibrate`) solves from
CAPACITY = 1.0
IDLE_LIFETIME_DAYS = 1.0
FLOOD_LIFETIME_HOURS = 3.75
FLOOD_RATE_PPS = 100.0
WAKEUP_DUTY = 0.05  # share of the time an idle radio wakes; calibration only
TX_RX_RATIO = 1.5
ACK_RX_RATIO = 0.25
ACTIVE_POWERSAVE_RATIO = 4.0


@record
class EnergyParams:
    """Power draw per state (units/s) and per-packet costs (units)."""

    p_active_idle: float
    p_powersave: float
    e_rx: float
    e_tx: float
    e_ack: float

    def _check(self):
        if min(self.p_active_idle, self.p_powersave, self.e_rx, self.e_tx,
               self.e_ack) < 0:
            raise ValueError("negative energy parameter")
        if self.p_powersave >= self.p_active_idle:
            raise ValueError("power-save draw must be below active idle draw")
        if self.e_tx <= self.e_rx:
            raise ValueError("transmit cost must exceed receive cost")

    @classmethod
    def calibrate(cls) -> "EnergyParams":
        """Solve the parameter set from the two lifetime endpoints.

        A battery of `CAPACITY` lasts `IDLE_LIFETIME_DAYS` idle and
        `FLOOD_LIFETIME_HOURS` under a flood of `FLOOD_RATE_PPS`. The idle
        target alone fixes `p_powersave`, the average draw of a napping
        radio that wakes for `WAKEUP_DUTY` of the time: the ledger charges
        it whole and never wakes the radio itself. An awake radio draws
        `ACTIVE_POWERSAVE_RATIO` times a sleeping one inside that blend,
        which gives `p_active_idle`. The flood target then fixes the
        per-packet receive cost, with transmit and ACK costs the fixed
        multiples `TX_RX_RATIO` and `ACK_RX_RATIO` of it.
        """
        idle_s = IDLE_LIFETIME_DAYS * 86400.0
        flood_s = FLOOD_LIFETIME_HOURS * 3600.0
        blend = (1.0 - WAKEUP_DUTY) + WAKEUP_DUTY * ACTIVE_POWERSAVE_RATIO
        p_active = ACTIVE_POWERSAVE_RATIO * (CAPACITY / (idle_s * blend))
        per_packet_budget = CAPACITY / flood_s - p_active
        e_rx = per_packet_budget / (
            FLOOD_RATE_PPS * (1.0 + TX_RX_RATIO + ACK_RX_RATIO))
        return cls(p_active_idle=p_active, p_powersave=CAPACITY / idle_s,
                   e_rx=e_rx, e_tx=TX_RX_RATIO * e_rx, e_ack=ACK_RX_RATIO * e_rx)


BATTERY_HEADER = "time,remaining,state"

#: Default parameters hitting 1.0 day idle and 3.75 h under a 100 pkt/s flood.
DEFAULT_PARAMS = EnergyParams.calibrate()

#: Microseconds of idle draw a battery's last budget may fall short of and
#: still cover, so that where a budget divides evenly into microseconds the
#: instant of death does not hang on the order the ledger's sums were added.
IDLE_US_TOL = 1e-6

#: Relative slack of the ledger balance. The sums are floats, and a battery
#: that dies inside an idle span hands over its last budget bits with it.
LEDGER_REL_TOL = 1e-9


@record
class Battery:
    capacity: float = CAPACITY


@record
class LoadProfile:
    """Steady-state load for closed-form lifetime queries."""

    packets_per_second: float = 0.0


def flood_profile(rate_pps: float) -> LoadProfile:
    return LoadProfile(packets_per_second=rate_pps)


def drain_rate(params: EnergyParams, profile: LoadProfile) -> float:
    """Energy units per second the ledger charges under a steady profile:
    each packet is received, answered and link-acked by an awake radio,
    and without traffic the radio naps at `p_powersave`."""
    if profile.packets_per_second > 0:
        per_packet = params.e_rx + params.e_tx + params.e_ack
        return params.p_active_idle + profile.packets_per_second * per_packet
    return params.p_powersave


def lifetime_under(params: EnergyParams, battery: Battery,
                   profile: LoadProfile) -> float:
    """Hours until the battery empties."""
    return battery.capacity / drain_rate(params, profile) / 3600.0


def write_battery_series(path: Path | str,
                         series: list[tuple[float, float, str]]) -> None:
    """Write `battery.csv`: one (time s, remaining, radio state) row each."""
    with open(path, "w", newline="") as handle:
        handle.write(BATTERY_HEADER + "\n")
        for t, remaining, state in series:
            handle.write(f"{t:.3f},{remaining:.9f},{state}\n")


class EnergyAccount:
    """Per-host battery ledger with exact conservation.

    remaining is derived (capacity + recharged - consumed), so
    capacity − remaining always equals the sum of per-packet costs and the
    integrated state power, by construction. A packet costs what its
    caller passes, `e_rx`, `e_ack` or `e_tx`.

    A run of pings (`safe_run`, `charge_run`) is charged by whether its
    pings are answered: each costs `e_rx` and `e_ack`, plus `e_tx` when it
    is, summed in the order `on_packet` charges them one at a time.
    """

    __slots__ = ("battery", "params", "consumed_packets", "consumed_active",
                 "consumed_powersave", "recharged", "active_us",
                 "powersave_us", "packets", "dead", "dead_at",
                 "last_activity", "_sleep_us", "_last_us", "_ping_costs")

    def __init__(self, battery: Battery, params: EnergyParams,
                 sleep_timeout_s: float, started_at: int):
        if sleep_timeout_s <= 0:
            raise ValueError("sleep timeout must be positive")
        self.battery = battery
        self.params = params
        self.consumed_packets = 0.0
        self.consumed_active = 0.0
        self.consumed_powersave = 0.0
        self.recharged = 0.0
        self.active_us = 0
        self.powersave_us = 0
        self.packets = 0
        self.dead = False
        self.dead_at: int | None = None  # a SimTime, built once at death
        self.last_activity = started_at
        self._sleep_us = round(sleep_timeout_s * US_PER_SECOND)
        self._last_us = started_at  # idle drain is integrated up to here
        # a ping's cost, unanswered and answered
        received = params.e_rx + params.e_ack
        self._ping_costs = (received, received + params.e_tx)

    @property
    def remaining(self) -> float:
        if self.dead:
            return 0.0
        total = (self.consumed_packets + self.consumed_active
                 + self.consumed_powersave)
        left = self.battery.capacity + self.recharged - total
        return left if left > 0.0 else 0.0  # max(0.0, left), without the call

    def balanced(self) -> bool:
        """consumed + remaining == capacity + recharged, to LEDGER_REL_TOL
        of the budget; more is energy the battery never had."""
        budget = self.battery.capacity + self.recharged
        consumed = (self.consumed_packets + self.consumed_active
                    + self.consumed_powersave)
        return abs(consumed + self.remaining - budget) <= LEDGER_REL_TOL * budget

    def state_at(self, now_us: int) -> str:
        """The radio's state at `now_us`, "active" or "power_save", as
        `battery.csv` names it."""
        if now_us - self.last_activity >= self._sleep_us:
            return "power_save"
        return "active"

    def row(self, now_us: int) -> tuple[float, float, str]:
        """The `battery.csv` row at `now_us`: time in s, the charge left
        and the radio state, "dead" once the battery is empty."""
        self.advance(now_us)
        state = "dead" if self.dead else self.state_at(now_us)
        return now_us / US_PER_SECOND, self.remaining, state

    def powersave_fraction(self, now_us: int) -> float:
        self.advance(now_us)
        total = self.active_us + self.powersave_us
        return self.powersave_us / total if total else 0.0

    def advance(self, now_us: int) -> None:
        """Integrate idle drain up to `now_us`, splitting at the sleep boundary."""
        a = self._last_us
        b = now_us
        if self.dead:
            self._last_us = max(a, b)
            return
        if b <= a:
            return
        # the radio stays active until the sleep instant, then naps
        active_end = self._sleep_instant(a, b)
        if active_end > a:
            self._charge_idle(active_end - a, True)
        if b > active_end and not self.dead:
            self._charge_idle(b - active_end, False)

    def _sleep_instant(self, a: int, b: int) -> int:
        """When the radio naps in the idle span a..b (a < b): the sleep
        timeout after the last activity, held inside the span."""
        active_end = self.last_activity + self._sleep_us
        if active_end < a:
            return a
        return active_end if active_end < b else b

    def _charge_idle(self, duration_us: int, active: bool) -> None:
        """Charge `duration_us` > 0 of idle draw, awake or napping."""
        power = self.params.p_active_idle if active else self.params.p_powersave
        cost = power * (duration_us / US_PER_SECOND)
        budget = self.remaining
        dies = cost >= budget and power > 0
        if dies:
            # a budget that covers a whole number of microseconds but for
            # the rounding of the ledger's sums still covers them
            survive_us = math.floor(budget / power * US_PER_SECOND + IDLE_US_TOL)
            duration_us = min(survive_us, duration_us)
            # the battery dies inside this span; the sub-microsecond tail of
            # the budget goes with it so a dead battery reads exactly empty
            cost = budget
        if active:
            self.consumed_active += cost
            self.active_us += duration_us
        else:
            self.consumed_powersave += cost
            self.powersave_us += duration_us
        self._last_us += duration_us
        if dies:
            self.dead = True
            self.dead_at = SimTime(self._last_us)

    def on_packet(self, now_us: int, cost: float) -> bool:
        """Charge one packet its `cost`. Returns False when the host is (or
        just went) dead."""
        if self.dead:
            return False
        if now_us > self._last_us:
            self.advance(now_us)
            if self.dead:
                return False
        remaining = self.remaining
        # a charge the battery cannot cover in full empties it: decided
        # before the charge, so the rounding of the sum after it never
        # lets the battery live on a few ulps
        exhausted = remaining <= cost
        if exhausted:
            cost = remaining
        self.consumed_packets += cost
        self.packets += 1
        self.last_activity = now_us
        if exhausted:
            self.dead = True
            self.dead_at = SimTime(now_us)
            return False
        return True

    def _run_constants(self, interval_us: int, answered: bool
                       ) -> tuple[float, float, int, int]:
        """The cost of one ping, of one ping and the idle gap after it, and
        that gap's active and power-save microseconds."""
        params = self.params
        step_cost = self._ping_costs[answered]
        # the gap after a ping: active until the sleep instant, then napping
        active_us = min(interval_us, self._sleep_us)
        powersave_us = interval_us - active_us
        idle = (params.p_active_idle * (active_us / US_PER_SECOND)
                + params.p_powersave * (powersave_us / US_PER_SECOND))
        return step_cost, step_cost + idle, active_us, powersave_us

    def safe_run(self, first_us: int, interval_us: int, count: int,
                 answered: bool) -> int:
        """How many leading pings of a run, answered or not, leave the
        battery certainly alive: the first one that might not, less two
        pings of margin for the rounding of the closed form."""
        step_cost, step, _, _ = self._run_constants(interval_us, answered)
        if step <= 0.0:
            return count
        # what is left after the first packet and the idle draw of the gap
        # before the run, split at the sleep instant as `advance` splits it
        left = self.remaining - step_cost
        last_us = self._last_us
        if first_us > last_us:
            active_end = self._sleep_instant(last_us, first_us)
            params = self.params
            left -= (params.p_active_idle * ((active_end - last_us) / US_PER_SECOND)
                     + params.p_powersave * ((first_us - active_end) / US_PER_SECOND))
        safe = math.floor(left / step) - 1
        if safe > count:
            return count
        return safe if safe > 0 else 0

    def charge_run(self, first_us: int, interval_us: int, count: int,
                   answered: bool) -> None:
        """Charge `count` pings at first_us + k*interval_us, answered or not,
        and the idle gaps between them; `safe_run` must cover them."""
        self.advance(first_us)
        gaps = count - 1
        step_cost, _, active_us, powersave_us = self._run_constants(
            interval_us, answered)
        # each state's idle draw alone: the other state's zero term would
        # change no bit of the sum
        params = self.params
        self.consumed_active += params.p_active_idle * (
            gaps * active_us / US_PER_SECOND)
        self.active_us += gaps * active_us
        self.consumed_powersave += params.p_powersave * (
            gaps * powersave_us / US_PER_SECOND)
        self.powersave_us += gaps * powersave_us
        self.consumed_packets += count * step_cost
        self.packets += count * (2 + answered)
        self._last_us = self.last_activity = first_us + gaps * interval_us

    def recharge(self, now_us: int) -> None:
        """Explicit full recharge; the only way out of the Dead state."""
        self.advance(now_us)
        self.recharged += self.battery.capacity - self.remaining
        self.dead = False
        self.dead_at = None
        self.last_activity = now_us
        self._last_us = now_us
