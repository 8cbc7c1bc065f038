"""Correctness checks on a workload's outputs.

Each check is an invariant that a legitimate behaviour-preserving change
keeps, so a perf change that trips one has broken something. Checks take
plain values read from the workload's outputs, which lets the self-test
feed them corrupted counters.
"""

import math

from dispo6.energy import EnergyParams
from dispo6.engine import TrafficCounters
from dispo6.home_agent import AgentCounters

# z-score of the binomial bound; a seeded run trips it with probability ~6e-7
BINOMIAL_Z = 5.0
# relative error allowed between packet-level death and the closed form
LIFETIME_REL = 2e-3
LEDGER_REL = 1e-9


def traffic_conserved(engine: dict) -> bool:
    return TrafficCounters(**engine).conserved()


def agent_conserved(home_agent: dict) -> bool:
    return AgentCounters(**home_agent).conserved()


def first_contact_rejections_within_bound(attempts: int, rejected: int,
                                          attack_hours: int) -> bool:
    """Rejected first contacts ~ Binomial(attempts, (h/12)^2) in paper mode."""
    if attempts <= 0:
        return False
    p = (attack_hours / 12.0) ** 2
    sigma = math.sqrt(attempts * p * (1.0 - p))
    return abs(rejected - attempts * p) <= BINOMIAL_Z * sigma


def death_matches_lifetime(dead_at_s: float | None, lifetime_s: float) -> bool:
    """Packet-level battery death agrees with energy.lifetime_under."""
    if dead_at_s is None or not math.isfinite(lifetime_s):
        return False
    return abs(dead_at_s - lifetime_s) <= LIFETIME_REL * lifetime_s


def ledger_balances(ledger: dict, params: EnergyParams, pings: int) -> bool:
    """Capacity is fully accounted for by packet charges and state power.

    State energy must equal power times the integrated occupancy, every
    answered ping costs rx + ack + reply, and a dead battery reads empty.
    Beyond the pings the host pays for one management exchange at set-up
    and for the packet that death cut short; death inside an idle span
    also takes the budget's sub-microsecond tail.
    """
    tol = LEDGER_REL * ledger["capacity"]
    for power, consumed, occupancy_us in (
            (params.p_active_idle, ledger["consumed_active"], ledger["active_us"]),
            (params.p_powersave, ledger["consumed_powersave"], ledger["powersave_us"])):
        if abs(consumed - power * occupancy_us / 1e6) > tol + power / 1e6:
            return False
    per_ping = params.e_rx + params.e_ack + params.e_tx
    charged = ledger["consumed_packets"]
    if not pings * per_ping - tol <= charged <= (pings + 2) * per_ping + tol:
        return False
    consumed = charged + ledger["consumed_active"] + ledger["consumed_powersave"]
    balance = ledger["capacity"] + ledger["recharged"] - consumed
    if ledger["dead"]:
        return abs(balance) <= tol and abs(ledger["remaining"]) <= tol
    return abs(balance - ledger["remaining"]) <= tol


def resolved_once(resolutions: list[int]) -> bool:
    """Every scheduled operation reported exactly one outcome."""
    return bool(resolutions) and all(count == 1 for count in resolutions)
