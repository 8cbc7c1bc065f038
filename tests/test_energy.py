import pytest

from dispo6.energy import (
    DEFAULT_PARAMS,
    LEDGER_REL_TOL,
    Battery,
    EnergyAccount,
    EnergyParams,
    LoadProfile,
    drain_rate,
    flood_profile,
    lifetime_under,
)
from dispo6.engine import EPOCH, US_PER_SECOND, SimTime

T = 10.0  # sleep timeout used throughout
RX, ACK, TX = DEFAULT_PARAMS.e_rx, DEFAULT_PARAMS.e_ack, DEFAULT_PARAMS.e_tx


def account(capacity=1.0, params=DEFAULT_PARAMS, timeout=T):
    return EnergyAccount(Battery(capacity=capacity), params, timeout, EPOCH)


class TestCalibration:
    def test_two_point_targets_hit(self):
        battery = Battery()
        idle_h = lifetime_under(DEFAULT_PARAMS, battery, LoadProfile())
        flood_h = lifetime_under(DEFAULT_PARAMS, battery, flood_profile(100.0))
        assert 0.9 <= idle_h / 24.0 <= 1.1
        assert 3.5 <= flood_h <= 4.0

    def test_parameter_invariants(self):
        p = DEFAULT_PARAMS
        assert p.p_powersave < p.p_active_idle
        assert p.e_tx > p.e_rx
        assert p.e_ack < p.e_rx

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(p_active_idle=1.0, p_powersave=2.0, e_rx=0.1,
                         e_tx=0.2, e_ack=0.01)
        with pytest.raises(ValueError):
            EnergyParams(p_active_idle=2.0, p_powersave=1.0, e_rx=0.3,
                         e_tx=0.2, e_ack=0.01)

    def test_monotonicity_in_flood_rate(self):
        battery = Battery()
        lifetimes = [lifetime_under(DEFAULT_PARAMS, battery, flood_profile(r))
                     for r in (1, 10, 100, 1000)]
        assert lifetimes == sorted(lifetimes, reverse=True)

    def test_an_idle_account_lives_the_calibrated_day(self):
        hours = lifetime_under(DEFAULT_PARAMS, Battery(), LoadProfile())
        assert hours == pytest.approx(24.0)
        acct = account()
        acct.advance(SimTime.from_seconds(2 * 86_400))
        assert acct.dead
        assert acct.dead_at / US_PER_SECOND / 3600 == pytest.approx(hours, rel=2e-3)


class TestPowerStates:
    def test_sleep_entry_at_exact_timeout(self):
        acct = account()
        acct.on_packet(SimTime.from_seconds(1), RX)
        assert acct.state_at(SimTime.from_seconds(1 + T - 0.001)) == "active"
        assert acct.state_at(SimTime.from_seconds(1 + T)) == "power_save"

    def test_rate_one_over_t_never_sleeps(self):
        acct = account()
        for k in range(200):
            acct.on_packet(SimTime.from_seconds(k * T), RX)
        assert acct.powersave_fraction(SimTime.from_seconds(199 * T)) == 0.0

    def test_rate_half_one_over_t_sleeps_half(self):
        acct = account()
        for k in range(100):
            acct.on_packet(SimTime.from_seconds(k * 2 * T), RX)
        fraction = acct.powersave_fraction(SimTime.from_seconds(99 * 2 * T))
        assert fraction == pytest.approx(0.5, abs=1e-9)

    def test_dead_host_absorbs_packets(self):
        acct = account(capacity=1e-9)
        acct.on_packet(SimTime.from_seconds(1), RX)
        acct.advance(SimTime.from_seconds(500))
        assert acct.dead
        consumed_before = acct.consumed_packets
        assert not acct.on_packet(SimTime.from_seconds(600), RX)
        assert acct.consumed_packets == consumed_before
        assert acct.remaining == 0.0

    def test_recharge_revives(self):
        acct = account(capacity=1e-9)
        acct.advance(SimTime.from_seconds(500))
        assert acct.dead
        acct.recharge(SimTime.from_seconds(600))
        assert not acct.dead
        assert acct.remaining == pytest.approx(1e-9)

    def test_death_crossing_time_exact(self):
        params = DEFAULT_PARAMS
        acct = account()
        # all-active drain (packets arriving faster than 1/T)
        horizon = 1.0 / params.p_active_idle  # seconds until empty, active idle
        acct.on_packet(EPOCH, RX)
        step = T / 2
        t = 0.0
        while not acct.dead and t < horizon * 2:
            t += step
            acct.on_packet(SimTime.from_seconds(t), RX)
        assert acct.dead
        # per-packet costs shave a sliver off the pure active-idle horizon
        assert acct.dead_at / US_PER_SECOND == pytest.approx(horizon, rel=1e-3)
        assert acct.dead_at / US_PER_SECOND < horizon


class TestLedger:
    def test_conservation_identity_over_random_trace(self):
        import random

        rng = random.Random(11)
        acct = account()
        t = 0.0
        for _ in range(500):
            t += rng.random() * 30
            acct.on_packet(SimTime.from_seconds(t), rng.choice([RX, TX, ACK]))
        acct.advance(SimTime.from_seconds(t + 123))
        consumed = (acct.consumed_packets + acct.consumed_active
                    + acct.consumed_powersave)
        assert acct.battery.capacity - acct.remaining == pytest.approx(
            consumed, rel=1e-12)

    def test_flood_drain_matches_closed_form(self):
        params = DEFAULT_PARAMS
        acct = account()
        seconds = 600
        rate = 100
        for i in range(seconds * rate):
            now = SimTime(round(i * 1e6 / rate))
            acct.on_packet(now, RX)
            acct.on_packet(now, ACK)
            acct.on_packet(now, TX)
        acct.advance(SimTime.from_seconds(seconds))
        expected = seconds * drain_rate(params, flood_profile(rate))
        consumed = acct.battery.capacity - acct.remaining
        assert consumed == pytest.approx(expected, rel=1e-9)


def charge_pings(acct, first_us, interval_us, count, answered):
    """Charge `count` pings one packet at a time, as a host's on_packet
    and pong do; returns how many left the battery alive."""
    costs = [RX, ACK] + [TX] * answered
    for k in range(count):
        now = first_us + k * interval_us
        if not all(acct.on_packet(now, cost) for cost in costs):
            return k
    return count


# runs that start after the radio has napped; gaps shorter than the sleep
# timeout T keep it awake, longer ones split at the sleep instant
RUN_FIRST_US = round(25 * US_PER_SECOND)
RUN_INTERVALS_US = [10_000, round(3.7 * US_PER_SECOND), round(25 * US_PER_SECOND)]


class TestRuns:
    """`charge_run` and `safe_run` against the per-packet charges a run
    of pings stands for."""

    @pytest.mark.parametrize("answered", [False, True])
    @pytest.mark.parametrize("interval_us", RUN_INTERVALS_US)
    def test_a_run_charges_what_its_pings_do(self, answered, interval_us):
        count = 300
        run, pings = account(), account()
        assert run.safe_run(RUN_FIRST_US, interval_us, count, answered) == count
        run.charge_run(RUN_FIRST_US, interval_us, count, answered)
        assert charge_pings(pings, RUN_FIRST_US, interval_us, count,
                            answered) == count
        for name in ("packets", "active_us", "powersave_us", "last_activity",
                     "dead"):
            assert getattr(run, name) == getattr(pings, name), name
        for name in ("consumed_packets", "consumed_active",
                     "consumed_powersave", "remaining"):
            assert getattr(run, name) == pytest.approx(
                getattr(pings, name), abs=LEDGER_REL_TOL), name

    @pytest.mark.parametrize("answered", [False, True])
    @pytest.mark.parametrize("interval_us", RUN_INTERVALS_US)
    @pytest.mark.parametrize("share", [0.0005, 0.002, 0.3, 0.999])
    def test_safe_run_admits_only_pings_that_survive(self, answered,
                                                     interval_us, share):
        count = 1000
        idle, full = account(), account()
        idle.advance(RUN_FIRST_US)
        full.charge_run(RUN_FIRST_US, interval_us, count, answered)
        # a battery that lasts to the run and then holds `share` of it
        capacity = (1.0 - idle.remaining) + share * (idle.remaining
                                                     - full.remaining)
        safe = account(capacity).safe_run(RUN_FIRST_US, interval_us, count,
                                          answered)
        survived = charge_pings(account(capacity), RUN_FIRST_US, interval_us,
                                count, answered)
        assert survived < count
        # its margin for the closed form's rounding is two pings
        assert survived - 3 <= safe <= survived
