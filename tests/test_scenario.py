import collections
import dataclasses
import math
import multiprocessing
import os
import random

import pytest
import yaml

from dispo6 import (
    InvariantError,
    caller,
    cli,
    crypto,
    distribution,
    engine,
    home_agent,
    messages,
    mobile_host,
    scenario,
)
from dispo6.caller import CallOutcome
from dispo6.energy import EnergyAccount
from dispo6.engine import Simulator
from dispo6.home_agent import HomeAgent
from dispo6.mobile_host import Mode
from dispo6.scenario import (
    ConfigError,
    RejectionMode,
    ScenarioConfig,
    fig3_config,
    run_scenario,
    run_sweep,
    write_call_log,
)
from dispo6.stats import expected_daily_rejections, sample_mean_std

from test_adversary import count_simtime_builds
from test_crypto import count_verifies, count_verify_derivations


def small_config(**overrides) -> ScenarioConfig:
    fields = dict(seed=3, horizon_days=20, correspondents=20,
                  daily_call_probability=0.2, pki_enabled=False)
    fields.update(overrides)
    return ScenarioConfig(**fields)


def assert_cli_rejects(mapping, field, tmp_path, capsys):
    """`dispo6 run` exits 2 before writing anything, naming `field`."""
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(mapping))
    status = cli.main(["run", "--config", str(config_path),
                       "--out-dir", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field in err
    assert not (tmp_path / "out").exists()


class TestConfigTyping:
    @pytest.mark.parametrize("key, value", [
        # attack_start_choices, victim_fqdn, latency_s and
        # detection_window_s name settings the paper fixes: refused as
        # unknown keys, by name
        ("horizon_days", "abc"),
        ("correspondents", 3.5),
        ("attack_start_choices", 5),
        ("daily_call_probability", None),
        ("seed", 1.5),
        ("seed", True),
        ("pki_enabled", "yes"),
        ("attack_start_choices", [8, "noon"]),
        ("victim_fqdn", 7),
        ("rejection_mode", None),
        ("latency_s", float("inf")),
        ("detection_window_s", float("nan")),
    ])
    def test_cli_exits_2_with_message(self, key, value, tmp_path, capsys):
        assert_cli_rejects({key: value}, key, tmp_path, capsys)

    def test_ints_accepted_for_float_fields(self):
        config = ScenarioConfig.from_mapping(
            {"daily_call_probability": 1, "attack_hours": 6})
        assert config.daily_call_probability == 1

    def test_non_string_key_exits_2_naming_it(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text("1: 2\nseed: 3\n")
        status = cli.main(["run", "--config", str(config_path),
                           "--out-dir", str(tmp_path / "out")])
        assert status == 2
        assert capsys.readouterr().err == "error: unknown config keys: 1\n"
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="unknown config keys: 1.5, None"):
            ScenarioConfig.from_mapping({1.5: 2, None: 0, "seed": 3})

    def test_direct_construction_checked_too(self):
        with pytest.raises(ConfigError, match="horizon_days"):
            ScenarioConfig(horizon_days="10").validate()

    def test_negative_seed_fails_validation(self):
        # `random.Random` seeds with |seed|: -3 would rerun seed 3
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ScenarioConfig(seed=-3).validate()

    @pytest.mark.parametrize("hours", [5, 3])
    def test_unpublished_duration_fails_validation(self, hours):
        with pytest.raises(ConfigError, match="4 or 6 hours"):
            ScenarioConfig(attack_hours=hours).validate()

    @pytest.mark.parametrize("key, message", [
        ("rejection_mode", "rejection_mode must be 'paper' or 'explicit'"),
        ("mobility_mode", "mobility_mode must be 'route_optimization' or "
                          "'bidirectional_tunneling'"),
    ])
    def test_an_unknown_mode_names_the_choices(self, key, message):
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig.from_mapping({key: "sometimes"})
        assert str(caught.value) == message

    def test_defaults_round_trip(self):
        mapping = ScenarioConfig().to_mapping()
        assert ScenarioConfig.from_mapping(mapping) == ScenarioConfig()


@pytest.mark.parametrize("key, value", [
    ("seed", -3),
    ("horizon_days", -1),
    ("correspondents", -5),
    ("daily_call_probability", 1.5),
    ("daily_call_probability", -0.1),
    ("oob_retry_delay_days", 0),
    # keys of settings the paper fixes: refused as unknown, by name
    ("latency_s", -0.01),
    ("loss_probability", 2.0),
    ("call_window_start", 21.0),
    ("call_window_end", 25.0),
    ("sleep_timeout_s", 0),
    ("detection_threshold_pps", -1.0),
    ("detection_window_s", 0),
    ("victim_fqdn", ""),
])
def test_cli_rejects_out_of_range_values(key, value, tmp_path, capsys):
    assert_cli_rejects({key: value}, key, tmp_path, capsys)


class TestRunInvariants:
    def test_clean_run_passes(self):
        result = run_scenario(small_config())
        assert result.metrics.total_calls > 0

    def test_agent_counter_corruption_is_caught(self, monkeypatch):
        original = HomeAgent.intercept

        def leaky(self, packet):
            original(self, packet)
            self.counters.intercepted += 1  # counted, never resolved

        monkeypatch.setattr(HomeAgent, "intercept", leaky)
        with pytest.raises(InvariantError, match="home-agent"):
            run_scenario(small_config())

    def test_engine_counter_corruption_is_caught(self, monkeypatch):
        original = Simulator.send

        def double_counted(self, packet):
            self.counters.sent += 1
            return original(self, packet)

        monkeypatch.setattr(Simulator, "send", double_counted)
        with pytest.raises(InvariantError, match="engine"):
            run_scenario(small_config())

    def test_energy_ledger_balances_on_a_real_run(self):
        # energy on: the battery dies on day 1 with no recharge, inside
        # an idle span, and the ledger still balances
        result = run_scenario(small_config(energy_enabled=True))
        assert result.metrics.energy["dead"]

    def test_calls_to_a_dead_battery_are_unreachable_not_rejected(self):
        # the calibrated battery dies late on day 0; each later caller's
        # handshake times out as if the prime were blocked, but the run
        # knows the victim is dead and counts no rejection
        result = run_scenario(ScenarioConfig(seed=1, horizon_days=5,
                                             energy_enabled=True))
        assert result.battery_series[0][2] == "dead"
        assert ([r.outcome for r in result.records]
                == [CallOutcome.UNREACHABLE] * 3)
        assert [d.rejected for d in result.metrics.daily] == [0] * 5
        # a call the victim lived to answer keeps its outcome
        records = run_scenario(small_config(energy_enabled=True)).records
        assert {r.outcome for r in records if r.day == 0} == {
            CallOutcome.CONNECTED}
        assert {r.outcome for r in records if r.day > 0} == {
            CallOutcome.UNREACHABLE}

    def test_energy_overdraw_is_caught(self, monkeypatch):
        original = EnergyAccount.on_packet

        def overdrawn(self, now, cost):
            alive = original(self, now, cost)
            self.consumed_packets += self.battery.capacity  # past empty
            return alive

        monkeypatch.setattr(EnergyAccount, "on_packet", overdrawn)
        with pytest.raises(InvariantError, match="energy ledger"):
            run_scenario(small_config(energy_enabled=True))


class TestRejectionModes:
    """Explicit mode blocks the prime at the home agent for each drawn
    window; paper mode draws its fixed probability and blocks nothing."""

    @pytest.mark.parametrize("mobility", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("hours", [4, 6])
    def test_explicit_first_contacts_rejected_at_window_share(self, mobility,
                                                              hours):
        first = rejected = 0
        for seed in range(10):
            result = run_scenario(ScenarioConfig(
                seed=seed, horizon_days=300, attack_hours=hours,
                pki_enabled=False, mobility_mode=mobility,
                rejection_mode=RejectionMode.EXPLICIT_TIME))
            counters = result.metrics.counters
            assert counters["victim"]["prime_disposals"] == 300
            assert counters["victim"]["reactivations"] == 300
            # every rejection is a request the home agent dropped
            assert (counters["home_agent"]["dropped_blocked"]
                    == result.metrics.rejected_calls)
            for record in result.records:
                if not record.had_disposable:
                    first += 1
                    rejected += (record.outcome
                                 is CallOutcome.REJECTED_PRIME_BLOCKED)
        p = hours / 12.0
        sigma = math.sqrt(first * p * (1.0 - p))
        assert abs(rejected - first * p) <= 3.0 * sigma

    def test_paper_mode_never_blocks_the_prime(self):
        result = run_scenario(small_config(horizon_days=60, attack_hours=6))
        assert result.metrics.rejected_calls > 0
        counters = result.metrics.counters
        assert counters["victim"]["prime_disposals"] == 0
        assert counters["home_agent"]["dropped_blocked"] == 0


def test_sweep_result_independent_of_jobs():
    config = small_config(horizon_days=30)
    seeds = [4, 0, 2, 1]
    assert run_sweep(config, seeds, jobs=1) == run_sweep(config, seeds, jobs=2)


def test_sweep_pool_no_wider_than_its_seeds(monkeypatch):
    # a serial stand-in records the width each sweep asks for
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, work):
            return [worker(each) for each in work]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    # four usable CPUs, so the seeds and not the CPUs bound the width
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    config = small_config(horizon_days=5)
    serial = run_sweep(config, [0, 1], jobs=1)
    assert run_sweep(config, [0, 1], jobs=32) == serial
    assert run_sweep(config, [0], jobs=32).summaries == serial.summaries[:1]
    assert sizes == [2]  # one seed runs in this process


@pytest.mark.parametrize("cpus, cpu_count, width", [
    ({0, 1, 2}, 64, 3),
    (None, 3, 3),
    ({5}, 64, None),
], ids=["affinity", "cpu-count", "one-cpu"])
def test_sweep_pool_no_wider_than_its_cpus(cpus, cpu_count, width,
                                           monkeypatch):
    """`--jobs 2000` asks for one worker per CPU the process may run on,
    counted by `sched_getaffinity` where the platform has it; with one
    CPU the sweep runs in this process. The stand-in pool records the
    width it is asked for and starts no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, work):
            return [worker(each) for each in work]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    result = run_sweep(small_config(horizon_days=2), list(range(5)), jobs=2000)
    assert len(result.summaries) == 5
    assert sizes == ([] if width is None else [width])


# what a run builds per call, per relayed packet or per handshake
PER_EVENT_RECORDS = (
    engine.Packet, home_agent.Encapsulated, home_agent.ReverseTunneled,
    messages.CallRequest, messages.CallAccept, caller.CallTimeout,
    caller.StartCall, scenario.CallRecord,
    home_agent.ManagementMessage, distribution.SessionTimer,
    distribution.RequestResult, distribution.AddressRequest,
    distribution.AddressResponse)


def test_a_pki_run_builds_per_event_records_with_no_class_call(monkeypatch):
    """A PKI run in BT mode builds each per-event record with
    `tuple.__new__`, signs each handshake message into the one record it
    builds (no `_replace`), and verifies its generated pairs' signatures
    without deriving a public key."""
    records = {cls for module in (engine, home_agent, messages, caller,
                                  scenario, distribution, crypto, mobile_host)
               for cls in vars(module).values()
               if isinstance(cls, type) and "_fields" in cls.__dict__}
    assert set(PER_EVENT_RECORDS) <= records
    built, replaced = collections.Counter(), [0]
    for cls in records:
        new, replace = cls.__new__, cls._replace

        def counted_new(cls, *args, _new=new, **kwargs):
            built[cls.__name__] += 1
            return _new(cls, *args, **kwargs)

        def counted_replace(self, /, _replace=replace, **changes):
            replaced[0] += 1
            return _replace(self, **changes)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(cls, "_replace", counted_replace)
    derived = count_verify_derivations(monkeypatch)
    checks = count_verifies(monkeypatch)
    config = small_config(correspondents=40, horizon_days=60,
                          daily_call_probability=0.05, pki_enabled=True,
                          mobility_mode=Mode.BIDIRECTIONAL_TUNNELING)
    result = run_scenario(config)
    monkeypatch.undo()
    grants = result.metrics.counters["responder"]["grants"]
    assert grants > 0 and checks[0] == 2 * grants
    assert any(r.outcome is CallOutcome.CONNECTED for r in result.records)
    # the victim's, the CA's and each correspondent's pair
    assert built["KeyPair"] == config.correspondents + 2
    assert [name for name in built
            if name in {cls.__name__ for cls in PER_EVENT_RECORDS}] == []
    assert replaced[0] == 0
    assert derived[0] == 0


@pytest.mark.parametrize("mode", list(RejectionMode), ids=lambda m: m.value)
def test_out_of_band_retry_after_rejection(mode):
    """A correspondent turned away on day d is handed a disposable over a
    side channel on day d+1, so its next call holds one and connects."""
    result = run_scenario(small_config(
        horizon_days=200, correspondents=40, rejection_mode=mode,
        oob_retry_delay_days=1))
    calls: dict[int, list] = {}
    for record in result.records:
        calls.setdefault(record.correspondent_id, []).append(record)
    rejected = 0
    for records in calls.values():
        outcomes = [r.outcome for r in records]
        rejections = outcomes.count(CallOutcome.REJECTED_PRIME_BLOCKED)
        assert rejections <= 1
        if rejections:
            rejected += 1
            day = records[outcomes.index(CallOutcome.REJECTED_PRIME_BLOCKED)].day
            later = [r for r in records if r.day > day]
            assert later, "no call after the rejection to check"
            assert later[0].had_disposable
            assert later[0].outcome is CallOutcome.CONNECTED
    assert rejected >= 3


def test_pki_handshake_makes_two_verifies_per_grant(monkeypatch):
    """Certificates come from the CA's memo; only the two message
    signatures, one per side, reach Ed25519."""
    calls = count_verifies(monkeypatch)
    result = run_scenario(small_config(pki_enabled=True))
    grants = result.metrics.counters["responder"]["grants"]
    assert grants > 0
    assert calls[0] == 2 * grants


@pytest.mark.parametrize("mode", list(RejectionMode), ids=lambda m: m.value)
def test_run_and_call_log_build_no_simtime(mode, tmp_path, monkeypatch):
    # days, calls, attack windows and the CSV's hh:mm all stay int us
    built = count_simtime_builds(monkeypatch)
    result = run_scenario(small_config(rejection_mode=mode, pki_enabled=True))
    write_call_log(tmp_path / "calls.csv", result.records)
    monkeypatch.undo()
    assert result.records and built == []


@pytest.mark.parametrize("rejection, mobility, hours, retry", [
    (RejectionMode.PAPER_FAITHFUL, Mode.BIDIRECTIONAL_TUNNELING, 4, None),
    (RejectionMode.PAPER_FAITHFUL, Mode.ROUTE_OPTIMIZATION, 6, 3),
    (RejectionMode.EXPLICIT_TIME, Mode.BIDIRECTIONAL_TUNNELING, 6, None),
    (RejectionMode.EXPLICIT_TIME, Mode.ROUTE_OPTIMIZATION, 4, 2),
], ids=["paper-bt-4h", "paper-ro-6h-retry", "explicit-bt-6h",
        "explicit-ro-4h-retry"])
def test_rejections_match_the_analytic_oracle(rejection, mobility, hours,
                                              retry):
    """Over 20 seeds the mean total of rejected calls lies within 4
    standard errors of `expected_daily_rejections`, which tests the whole
    curve of a run and not only the first-contact rate."""
    config = ScenarioConfig(horizon_days=300, attack_hours=hours,
                            pki_enabled=False, rejection_mode=rejection,
                            mobility_mode=mobility,
                            oob_retry_delay_days=retry)
    seeds = 20
    observed = [float(run_scenario(dataclasses.replace(config, seed=s))
                      .metrics.rejected_calls) for s in range(seeds)]
    mean, std = sample_mean_std(observed)
    expected = sum(expected_daily_rejections(config))
    assert abs(mean - expected) <= 4.0 * std / math.sqrt(seeds), (
        mean, expected, std)


class TestCallArrivals:
    def test_probability_zero_places_no_calls(self):
        result = run_scenario(small_config(daily_call_probability=0.0))
        assert result.metrics.total_calls == 0
        assert [d.calls for d in result.metrics.daily] == [0] * 20

    def test_probability_one_calls_every_correspondent_every_day(self):
        result = run_scenario(small_config(daily_call_probability=1.0,
                                           horizon_days=5))
        assert sorted((r.day, r.correspondent_id) for r in result.records) \
            == [(day, i) for day in range(5) for i in range(20)]

    def test_one_day_horizon(self):
        result = run_scenario(small_config(horizon_days=1,
                                           daily_call_probability=0.5))
        assert len(result.metrics.daily) == 1
        assert all(r.day == 0 for r in result.records)
        assert 0 < result.metrics.total_calls < 20

    def test_draws_scale_with_calls_not_days(self, monkeypatch):
        draws = [0]

        class CountingRandom(random.Random):
            def random(self):
                draws[0] += 1
                return super().random()

        # the workload's stream, like the simulator's, is a random.Random
        monkeypatch.setattr(random, "Random", CountingRandom)
        result = run_scenario(small_config(correspondents=2000,
                                           horizon_days=100,
                                           daily_call_probability=0.001,
                                           attack_hours=None))
        calls = result.metrics.total_calls
        assert calls > 0
        # a first gap per correspondent, then a time, a coincidence and
        # the next gap per call: 200 k draws for a per-day coin flip
        assert draws[0] == 2000 + 3 * calls

    def test_arrivals_do_not_depend_on_the_battery(self):
        arrivals = [[(r.day, r.correspondent_id) for r in run_scenario(
            small_config(energy_enabled=energy)).records]
            for energy in (False, True)]
        assert arrivals[0] == arrivals[1]


def test_monitor_forgets_addresses_gone_quiet(monkeypatch):
    """After a 2000-correspondent fig3 run the victim's monitor holds only
    addresses that saw a packet within the last window, not one per
    disposable ever used."""
    victims = []
    original = scenario.attached_victim

    def capture(*args, **kwargs):
        victims.append(original(*args, **kwargs))
        return victims[-1]

    monkeypatch.setattr(scenario, "attached_victim", capture)
    config = dataclasses.replace(fig3_config("4h"), seed=1,
                                 correspondents=2000, pki_enabled=False)
    result = run_scenario(config)
    assert result.metrics.total_calls > 5000
    [victim] = victims
    monitor = victim.monitor
    windows = monitor._windows
    last = max(window.newest() for window in windows.values())
    assert all(window.newest() >= last - monitor._window_us
               for window in windows.values())
    assert len(windows) < 10
