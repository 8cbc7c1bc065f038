"""Small statistics helpers for the experiment harness."""

import math

from .messages import record
from .scenario import (
    CALL_WINDOW_END,
    CALL_WINDOW_START,
    RejectionMode,
    ScenarioConfig,
)


@record
class MannKendallResult:
    s: int
    var_s: float
    z: float
    p_decreasing: float  # one-sided p-value against "no trend"


def mann_kendall(values: list[float]) -> MannKendallResult:
    """Mann-Kendall trend statistic with the tie-corrected variance."""
    n = len(values)
    if n < 3:
        raise ValueError("need at least 3 points for a trend test")
    s = 0
    for i in range(n - 1):
        x = values[i]
        for j in range(i + 1, n):
            d = values[j] - x
            if d > 0:
                s += 1
            elif d < 0:
                s -= 1
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t * (t - 1) * (2 * t + 5) for t in counts.values() if t > 1)
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var_s <= 0:
        # all values identical: no evidence of any trend
        return MannKendallResult(s=s, var_s=0.0, z=0.0, p_decreasing=1.0)
    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    p_decreasing = 0.5 * math.erfc(-z / math.sqrt(2.0))  # P(N(0,1) <= z)
    return MannKendallResult(s=s, var_s=var_s, z=z, p_decreasing=p_decreasing)


def sample_mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0.0 for a single value)."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def _first_contact_rejection(config: ScenarioConfig) -> float:
    """Chance that a call from a correspondent holding no disposable
    address is rejected: (h/12)^2 in paper mode; in explicit mode the
    share of the call window that the attack window covers, h/12, since
    every published attack window lies inside the call window."""
    schedule = config.schedule()
    if schedule is None:
        return 0.0
    if config.rejection_mode is RejectionMode.PAPER_FAITHFUL:
        return schedule.paper_rejection_probability()
    return schedule.daily_hours / (CALL_WINDOW_END - CALL_WINDOW_START)


def expected_daily_rejections(config: ScenarioConfig) -> list[float]:
    """Expected rejected calls on each day of `run_scenario(config)`.

    Each correspondent calls on a day with probability p; a call without
    a disposable address is rejected with probability q and otherwise
    earns one for good. The expectation on day d is N*p*q times the chance
    of still lacking an address, (1 - p(1-q))^d without out-of-band
    retry. With a retry delay of k days, a rejection on day d hands the
    correspondent an address at the start of day d+k, so a lacking
    correspondent also carries the days until its earliest pending grant.

    The model assumes every handshake that meets no attack succeeds. The
    link of a run loses nothing, but a battery that can die is outside it.
    """
    if config.energy_enabled:
        raise ValueError("the rejection model assumes no battery model")
    n, p = config.correspondents, config.daily_call_probability
    q = _first_contact_rejection(config)
    stay = 1.0 - p * (1.0 - q)
    k = config.oob_retry_delay_days
    free = 1.0  # lacking an address, no grant pending
    # due[i]: lacking an address, earliest grant arriving in i + 1 days
    due = [0.0] * (k - 1 if k is not None else 0)
    expected = []
    for _ in range(config.horizon_days):
        expected.append(n * p * q * (free + sum(due)))
        if k is None:
            free *= stay
            continue
        rejected = free * p * q
        free *= 1.0 - p
        due = [d * stay for d in due[1:]] + ([rejected] if k > 1 else [])
    return expected
