"""Battery and radio power-state accounting for mobile hosts.

The radio is Active until `sleep_timeout_s` passes with no traffic, then
drops to power-save. Instead of scheduling sleep/wake events, the account
integrates idle drain lazily between charges, splitting each interval at
the exact sleep-entry instant. That keeps occupancy and drain bit-exact and
deterministic regardless of event granularity. A flood segment's packets
are charged the same way, a run at a time (`charge_run`): the packets'
costs, and the idle draw of the gaps between them, split at the sleep
boundary like any other gap.

Costs are abstract energy units. The calibration ties the unit scale to
two measured endpoints: about a day of lifetime when idle, and a few
hours under a saturating request flood.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .engine import US_PER_SECOND, SimTime
from .messages import record


class RadioState(Enum):
    ACTIVE = "active"
    POWER_SAVE = "power_save"


class PacketKind(Enum):
    RX = "rx"
    TX_REPLY = "tx_reply"
    TX_ACK = "tx_ack"


class CalibrationError(Exception):
    """The lifetime targets cannot be met with the given ratios."""


@dataclass(frozen=True, slots=True)
class EnergyParams:
    """Power draw per state (units/s) and per-packet costs (units)."""

    p_active_idle: float
    p_powersave: float
    e_rx: float
    e_tx: float
    e_ack: float

    def __post_init__(self):
        if min(self.p_active_idle, self.p_powersave, self.e_rx, self.e_tx,
               self.e_ack) < 0:
            raise ValueError("negative energy parameter")
        if self.p_powersave >= self.p_active_idle:
            raise ValueError("power-save draw must be below active idle draw")
        if self.e_tx <= self.e_rx:
            raise ValueError("transmit cost must exceed receive cost")

    def packet_cost(self, kind: PacketKind) -> float:
        if kind is PacketKind.RX:
            return self.e_rx
        if kind is PacketKind.TX_REPLY:
            return self.e_tx
        return self.e_ack

    @classmethod
    def calibrate(cls, capacity: float = 1.0,
                  idle_lifetime_days: float = 1.0,
                  flood_lifetime_hours: float = 3.75,
                  flood_rate_pps: float = 100.0,
                  wakeup_duty: float = 0.05,
                  tx_rx_ratio: float = 1.5,
                  ack_rx_ratio: float = 0.25,
                  active_powersave_ratio: float = 4.0) -> "EnergyParams":
        """Solve the parameter set from the two lifetime endpoints.

        Idle target fixes the state powers (given the wakeup duty cycle and
        the active/power-save draw ratio); the flood target then fixes the
        per-packet receive cost, with transmit and ACK costs as fixed
        multiples of it.
        """
        idle_s = idle_lifetime_days * 86400.0
        flood_s = flood_lifetime_hours * 3600.0
        blend = (1.0 - wakeup_duty) + wakeup_duty * active_powersave_ratio
        p_powersave = capacity / (idle_s * blend)
        p_active = active_powersave_ratio * p_powersave
        per_packet_budget = capacity / flood_s - p_active
        if per_packet_budget <= 0:
            raise CalibrationError(
                "active idle draw alone exceeds the flood drain target; "
                "lower active_powersave_ratio or the idle lifetime")
        e_rx = per_packet_budget / (flood_rate_pps * (1.0 + tx_rx_ratio + ack_rx_ratio))
        return cls(p_active_idle=p_active, p_powersave=p_powersave,
                   e_rx=e_rx, e_tx=tx_rx_ratio * e_rx, e_ack=ack_rx_ratio * e_rx)


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
class Battery(NamedTuple):
    capacity: float = 1.0


@record
class LoadProfile(NamedTuple):
    """Steady-state load for closed-form lifetime queries."""

    name: str
    packets_per_second: float = 0.0
    replies: bool = True
    link_acks: bool = True
    active_duty: float = 0.05  # wakeup duty cycle when there is no traffic


def idle_profile() -> LoadProfile:
    return LoadProfile(name="idle")


def flood_profile(rate_pps: float = 100.0) -> LoadProfile:
    return LoadProfile(name="flood", packets_per_second=rate_pps)


def drain_rate(params: EnergyParams, profile: LoadProfile) -> float:
    """Energy units per second consumed under a steady profile."""
    if profile.packets_per_second > 0:
        per_packet = params.e_rx
        if profile.replies:
            per_packet += params.e_tx
        if profile.link_acks:
            per_packet += params.e_ack
        return params.p_active_idle + profile.packets_per_second * per_packet
    return (profile.active_duty * params.p_active_idle
            + (1.0 - profile.active_duty) * params.p_powersave)


def lifetime_under(params: EnergyParams, battery: Battery,
                   profile: LoadProfile) -> float:
    """Hours until the battery empties; inf for a zero-drain profile."""
    rate = drain_rate(params, profile)
    if rate <= 0:
        return math.inf
    return battery.capacity / rate / 3600.0


@dataclass(slots=True)
class EnergyAccount:
    """Per-host battery ledger with exact conservation.

    remaining is derived (capacity + recharged - consumed), so
    capacity − remaining always equals the sum of per-packet costs and the
    integrated state power, by construction.
    """

    battery: Battery
    params: EnergyParams
    sleep_timeout_s: float
    started_at: int
    consumed_packets: float = 0.0
    consumed_active: float = 0.0
    consumed_powersave: float = 0.0
    recharged: float = 0.0
    active_us: int = 0
    powersave_us: int = 0
    packets: int = 0
    dead: bool = False
    dead_at: int | None = None  # a SimTime, built once at death
    last_activity: int = field(init=False)
    _sleep_us: int = field(init=False)
    _last_us: int = field(init=False)  # idle drain is integrated up to here

    def __post_init__(self):
        if self.sleep_timeout_s <= 0:
            raise ValueError("sleep timeout must be positive")
        self._sleep_us = round(self.sleep_timeout_s * US_PER_SECOND)
        self.last_activity = self.started_at
        self._last_us = self.started_at

    @property
    def remaining(self) -> float:
        if self.dead:
            return 0.0
        total = (self.consumed_packets + self.consumed_active
                 + self.consumed_powersave)
        return max(0.0, self.battery.capacity + self.recharged - total)

    def balanced(self) -> bool:
        """consumed + remaining == capacity + recharged, to LEDGER_REL_TOL
        of the budget; more is energy the battery never had."""
        budget = self.battery.capacity + self.recharged
        consumed = (self.consumed_packets + self.consumed_active
                    + self.consumed_powersave)
        return abs(consumed + self.remaining - budget) <= LEDGER_REL_TOL * budget

    def state_at(self, now_us: int) -> RadioState:
        if now_us - self.last_activity >= self._sleep_us:
            return RadioState.POWER_SAVE
        return RadioState.ACTIVE

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
        active_us, powersave_us = self._gap_us(a, b, self.last_activity)
        self._charge_idle(active_us, RadioState.ACTIVE)
        if not self.dead:
            self._charge_idle(powersave_us, RadioState.POWER_SAVE)

    def _charge_idle(self, duration_us: int, state: RadioState) -> None:
        if duration_us <= 0:
            return
        power = (self.params.p_active_idle if state is RadioState.ACTIVE
                 else self.params.p_powersave)
        cost = power * (duration_us / US_PER_SECOND)
        budget = self.remaining
        if cost >= budget and power > 0:
            # a budget that covers a whole number of microseconds but for
            # the rounding of the ledger's sums still covers them
            survive_us = math.floor(budget / power * US_PER_SECOND + IDLE_US_TOL)
            survive_us = min(survive_us, duration_us)
            # the battery dies inside this span; the sub-microsecond tail of
            # the budget goes with it so a dead battery reads exactly empty
            self._accumulate(state, survive_us, budget)
            self.dead = True
            self._last_us += survive_us
            self.dead_at = SimTime(self._last_us)
            return
        self._accumulate(state, duration_us, cost)
        self._last_us += duration_us

    def _accumulate(self, state: RadioState, duration_us: int, cost: float) -> None:
        if state is RadioState.ACTIVE:
            self.consumed_active += cost
            self.active_us += duration_us
        else:
            self.consumed_powersave += cost
            self.powersave_us += duration_us

    def on_packet(self, now_us: int, kind: PacketKind) -> bool:
        """Charge one packet. Returns False when the host is (or just went) dead."""
        if self.dead:
            return False
        if now_us > self._last_us:
            self.advance(now_us)
            if self.dead:
                return False
        cost = self.params.packet_cost(kind)
        # `remaining` before and after the charge, spelled out: the same
        # float operations in the same order, without the property calls
        budget = self.battery.capacity + self.recharged
        remaining = budget - (self.consumed_packets + self.consumed_active
                              + self.consumed_powersave)
        # a charge the battery cannot cover in full empties it: decided
        # before the charge, so the rounding of the sum after it never
        # lets the battery live on a few ulps
        exhausted = remaining <= cost
        if exhausted:
            cost = remaining if remaining > 0.0 else 0.0
        self.consumed_packets += cost
        self.packets += 1
        self.last_activity = now_us
        if exhausted:
            self.dead = True
            self.dead_at = SimTime(now_us)
            return False
        return True

    def _gap_us(self, a: int, b: int, last_activity_us: int) -> tuple[int, int]:
        """Active and power-save microseconds of an idle gap from a to b: the
        radio stays active until the sleep instant, then naps."""
        active_end = min(b, max(a, last_activity_us + self._sleep_us))
        return active_end - a, b - active_end

    def _idle_cost(self, active_us: int, powersave_us: int) -> float:
        params = self.params
        return (params.p_active_idle * (active_us / US_PER_SECOND)
                + params.p_powersave * (powersave_us / US_PER_SECOND))

    def safe_run(self, first_us: int, interval_us: int, count: int,
                 kinds: tuple[PacketKind, ...]) -> int:
        """How many leading packets of a run, each charged `kinds`, leave
        the battery certainly alive: the first one that might not, less
        two packets of margin for the rounding of the closed form."""
        step_cost = sum(map(self.params.packet_cost, kinds))
        left = self.remaining - step_cost
        if first_us > self._last_us:
            left -= self._idle_cost(*self._gap_us(
                self._last_us, first_us, self.last_activity))
        step = step_cost + self._idle_cost(*self._gap_us(0, interval_us, 0))
        if step <= 0.0:
            return count
        return max(0, min(count, math.floor(left / step) - 1))

    def charge_run(self, first_us: int, interval_us: int, count: int,
                   kinds: tuple[PacketKind, ...]) -> None:
        """Charge `count` packets at first_us + k*interval_us, each `kinds`,
        and the idle gaps between them; `safe_run` must cover them."""
        self.advance(first_us)
        gaps = count - 1
        active_us, powersave_us = self._gap_us(0, interval_us, 0)
        self._accumulate(RadioState.ACTIVE, gaps * active_us,
                         self._idle_cost(gaps * active_us, 0))
        self._accumulate(RadioState.POWER_SAVE, gaps * powersave_us,
                         self._idle_cost(0, gaps * powersave_us))
        self.consumed_packets += count * sum(map(self.params.packet_cost, kinds))
        self.packets += count * len(kinds)
        self._last_us = first_us + gaps * interval_us
        self.last_activity = self._last_us

    def tick_idle(self, dt_s: float) -> None:
        if dt_s < 0:
            raise ValueError("negative idle tick")
        if dt_s == 0:
            return
        self.advance(self._last_us + round(dt_s * US_PER_SECOND))

    def recharge(self, now_us: int) -> None:
        """Explicit full recharge; the only way out of the Dead state."""
        self.advance(now_us)
        self.recharged += self.battery.capacity - self.remaining
        self.dead = False
        self.dead_at = None
        self.last_activity = now_us
        self._last_us = now_us
