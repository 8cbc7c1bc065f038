"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is emitted with its unit,
that tracing leaves the outputs byte-identical, that each correctness
check fails on a corrupted counter or a wrong closed-form lifetime, and
that the core-speed sampler times slices and then leaves no timer behind.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dispo6.energy import DEFAULT_PARAMS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, group):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # with trace 1 this includes the traced-vs-untraced digest check
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.fixture(scope="module")
def flood_data(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("flood")
    size = workloads.SIZES["toy"]["flood_drain"]
    _, data = workloads.flood_drain(3, size, out_dir)
    assert all(ok for _, ok in workloads.flood_drain_checks(data))
    return data


def test_conservation_checks_fail_on_corrupted_counters(flood_data):
    engine = dict(flood_data["counters"]["engine"])
    agent = dict(flood_data["counters"]["home_agent"])
    assert checks.traffic_conserved(engine) and checks.agent_conserved(agent)
    engine["delivered"] += 1
    agent["tunneled"] -= 1
    assert not checks.traffic_conserved(engine)
    assert not checks.agent_conserved(agent)


def test_lifetime_check_fails_on_wrong_closed_form(flood_data):
    ledger = flood_data["ledger"]
    dead_at_s = ledger["dead_at_us"] / 1e6
    assert checks.death_matches_lifetime(dead_at_s, flood_data["lifetime_s"])
    assert not checks.death_matches_lifetime(dead_at_s, flood_data["lifetime_s"] * 1.01)
    assert not checks.death_matches_lifetime(None, flood_data["lifetime_s"])


@pytest.mark.parametrize("field,delta", [
    ("consumed_packets", 1e-6), ("consumed_active", 1e-6), ("active_us", 1000),
    ("remaining", 1e-6)])
def test_ledger_check_fails_on_corrupted_ledger(flood_data, field, delta):
    pings = flood_data["counters"]["victim"]["pings"]
    ledger = dict(flood_data["ledger"])
    assert checks.ledger_balances(ledger, DEFAULT_PARAMS, pings)
    ledger[field] += delta
    assert not checks.ledger_balances(ledger, DEFAULT_PARAMS, pings)


def test_ledger_check_fails_on_wrong_ping_count(flood_data):
    pings = flood_data["counters"]["victim"]["pings"]
    assert not checks.ledger_balances(flood_data["ledger"], DEFAULT_PARAMS, pings + 5)


def test_first_contact_bound():
    assert checks.first_contact_rejections_within_bound(1800, 200, 4)
    assert not checks.first_contact_rejections_within_bound(1800, 400, 4)
    assert not checks.first_contact_rejections_within_bound(0, 0, 4)


def test_resolved_once():
    assert checks.resolved_once([1, 1, 1])
    assert not checks.resolved_once([1, 0, 1])
    assert not checks.resolved_once([1, 2])
    assert not checks.resolved_once([])


def test_recorder_self_time_excludes_children_and_keygen_absorbs():
    recorder = tracing.Recorder()

    class Layer:
        def inner(self):
            time.sleep(0.002)

        def outer(self):
            time.sleep(0.002)
            self.inner()

    Layer.inner = recorder.span("inner", Layer.inner)
    Layer.outer = recorder.span("outer", Layer.outer)
    sign = recorder.span("crypto.sign", lambda: None)
    issue = recorder.span(tracing.ABSORBING, lambda: sign())
    Layer().outer()
    issue()
    sign()
    stats = recorder.aggregate()
    assert stats["outer"]["calls"] == stats["inner"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"])
    assert stats["inner"]["self_s"] == stats["inner"]["total_s"]
    assert stats["crypto.sign"]["calls"] == 1  # the one under keygen is folded in
    assert stats[tracing.ABSORBING]["calls"] == 1


def test_speed_sampler_times_slices_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 3.5 * reference.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.slices) >= 2
    assert all(0 < s < reference.INTERVAL_S for s in sampler.slices)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    with reference.SpeedSampler() as short:
        pass
    assert len(short.slices) == 1  # a run shorter than one interval still gets a speed
