import dataclasses
import math
import random

import pytest
from scipy import stats as scipy_stats

from dispo6.adversary import FOUR_HOUR_SCHEDULE, SIX_HOUR_SCHEDULE
from dispo6.scenario import (
    CALL_WINDOW_END,
    CALL_WINDOW_START,
    RejectionMode,
    ScenarioConfig,
)
from dispo6.stats import (
    expected_daily_rejections,
    mann_kendall,
    sample_mean_std,
)


def s_from_kendalltau(values: list[float]) -> float:
    """Mann-Kendall S from Kendall's tau-b of (time, value).

    Time has no ties, so tau_b = S / sqrt(n0 * (n0 - n2)), where n0 counts
    all pairs and n2 the pairs tied in value.
    """
    n = len(values)
    n0 = n * (n - 1) / 2
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    n2 = sum(t * (t - 1) / 2 for t in counts.values())
    tau = scipy_stats.kendalltau(range(n), values).statistic
    return tau * math.sqrt(n0 * (n0 - n2))


class TestMannKendall:
    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0, 9.0, 7.0],
        [9.0, 7.5, 8.0, 6.0, 6.5, 5.0, 2.0, 4.0, 3.0, 1.0, 0.5, 1.5],
    ], ids=["tied", "untied"])
    def test_s_matches_kendalltau(self, values):
        result = mann_kendall(values)
        assert result.s == pytest.approx(s_from_kendalltau(values), abs=1e-9)
        assert result.p_decreasing == pytest.approx(
            scipy_stats.norm.cdf(result.z), rel=1e-12)

    def test_tie_corrected_variance(self):
        values = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
        n = len(values)
        expected = (n * (n - 1) * (2 * n + 5)
                    - 2 * 1 * 9 - 3 * 2 * 11) / 18.0
        assert mann_kendall(values).var_s == expected

    def test_falling_series_is_decreasing(self):
        rng = random.Random(4)
        values = [100.0 - day + rng.gauss(0.0, 5.0) for day in range(60)]
        result = mann_kendall(values)
        assert result.s < 0
        assert result.p_decreasing < 0.001
        assert not mann_kendall(values[::-1]).p_decreasing < 0.05

    def test_constant_series_has_no_trend(self):
        result = mann_kendall([2.0] * 5)
        assert (result.s, result.z, result.p_decreasing) == (0, 0.0, 1.0)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            mann_kendall([1.0, 0.0])


def test_sample_mean_std_matches_scipy():
    values = [1.0, 4.0, 4.0, 9.0, 12.5]
    mean, std = sample_mean_std(values)
    assert mean == pytest.approx(sum(values) / len(values))
    assert std == pytest.approx(scipy_stats.tstd(values))
    assert sample_mean_std([3.0]) == (3.0, 0.0)


class TestExpectedDailyRejections:
    @pytest.mark.parametrize("mode, q", [
        (RejectionMode.PAPER_FAITHFUL, (4 / 12) ** 2),
        (RejectionMode.EXPLICIT_TIME, 4 / 12),
    ], ids=["paper", "explicit"])
    def test_closed_form_without_retry(self, mode, q):
        config = ScenarioConfig(horizon_days=50, correspondents=30,
                                daily_call_probability=0.1, attack_hours=4,
                                rejection_mode=mode)
        n, p = 30, 0.1
        assert expected_daily_rejections(config) == pytest.approx(
            [n * p * q * (1 - p * (1 - q)) ** d for d in range(50)],
            rel=1e-12)

    def test_retry_delay_worked_by_hand(self):
        # everyone calls daily and half the first contacts are rejected;
        # a day-0 rejection is granted an address at the start of day 2,
        # so only day 1 sees a second try, and nobody lacks one after
        config = ScenarioConfig(horizon_days=5, correspondents=10,
                                daily_call_probability=1.0, attack_hours=6,
                                rejection_mode=RejectionMode.EXPLICIT_TIME,
                                oob_retry_delay_days=2)
        assert expected_daily_rejections(config) == [5.0, 2.5, 0.0, 0.0, 0.0]
        one_day = dataclasses.replace(config, oob_retry_delay_days=1)
        assert expected_daily_rejections(one_day) == [5.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("schedule", [FOUR_HOUR_SCHEDULE, SIX_HOUR_SCHEDULE],
                             ids=["4h", "6h"])
    def test_attack_windows_lie_inside_the_call_window(self, schedule):
        # what makes the explicit-mode chance exactly h/12
        for start in schedule.start_choices:
            assert (CALL_WINDOW_START <= start
                    and start + schedule.daily_hours <= CALL_WINDOW_END)

    @pytest.mark.parametrize("field, value", [("energy_enabled", True)])
    def test_configs_outside_the_model_raise(self, field, value):
        with pytest.raises(ValueError, match="no battery model"):
            expected_daily_rejections(ScenarioConfig(**{field: value}))
