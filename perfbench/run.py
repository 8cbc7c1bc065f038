"""dispo6 benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 35 --trace 0

Each repeat runs in a fresh single-threaded worker process (worker.py) on
the same seed. With --trace 0 the untraced repeats give the end-to-end
metrics (medians over repeats). Their host times are rescaled to a fixed
core speed, measured by a probe that samples the core while the workload
runs (reference.py), because a shared host's core speed drifts by more
than any bound allows. With --trace 1 untraced and traced repeats
alternate: the traced ones give the per-layer metrics and, against the
untraced ones, the tracing overhead. Every repeat's outputs are checked,
and every repeat of a run must write byte-identical outputs, traced or not.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; `attempted` counts correctness
checks run and `failed` those that failed. Metric names and units come
from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("fig3", "flood_drain", "prime_attack")
RUN_LIMIT_S = 170.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy sizes exist for the benchmark's self-test")
    return parser.parse_args(argv)


def run_repeat(args: argparse.Namespace, out_dir: Path, traced: bool,
               deadline: float) -> dict:
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size,
               "--out-dir", str(out_dir)]
    if traced:
        command.append("--traced")
    # a fixed hash seed keeps str-keyed dict layouts, and their speed, alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.perf_counter() - started
    if not traced:
        # host seconds on a core where one probe slice takes REFERENCE_S
        result["host_wall_s"] = result["wall_s"] - result["sliced_wall_s"]
        result["probe_s"] = statistics.mean(result["slices_s"])
        scale = REFERENCE_S / result["probe_s"]
        result["wall_s"] = result["host_wall_s"] * scale
        result["setup_s"] *= scale
    return result


def run_repeats(args: argparse.Namespace, scratch: Path) -> tuple[list, list]:
    """Run rounds (an untraced repeat, then a traced one when tracing) while
    the next round is expected to end within --seconds; at least one round."""
    start = time.perf_counter()
    hard_deadline = start + RUN_LIMIT_S
    kinds = (False, True) if args.trace else (False,)
    untraced, traced, rounds = [], [], []
    while not rounds or time.perf_counter() - start + max(rounds) <= args.seconds:
        round_start = time.perf_counter()
        for is_traced in kinds:
            out_dir = scratch / f"repeat-{len(untraced) + len(traced):03d}"
            batch = traced if is_traced else untraced
            batch.append(run_repeat(args, out_dir, is_traced, hard_deadline))
        rounds.append(time.perf_counter() - round_start)
    return untraced, traced


def summarize(args: argparse.Namespace, untraced: list, traced: list,
              units: dict[str, str]) -> tuple[dict, int, int]:
    repeats = untraced + traced
    checks = [ok for r in repeats for _, ok in r["checks"]]
    # tracing and repetition must leave the seeded outputs byte-identical
    checks.append(len({r["digest"] for r in repeats}) == 1)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # traced repeats run unsampled, so compare unscaled host times
        values["trace_overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["host_wall_s"] for r in untraced))
    else:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in ("wall_s", "setup_s", "peak_rss_mb")}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return metrics, len(checks), checks.count(False)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dispo6" / "__init__.py").is_file():
        print(f"error: no dispo6 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        untraced, traced = run_repeats(args, scratch)
        metrics, attempted, failed = summarize(args, untraced, traced, units)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload={args.workload} seed={args.seed} "
          f"repeats={len(untraced)} traced_repeats={len(traced)} "
          f"digest={untraced[0]['digest']}")
    print(f"check_fail_frac {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} checks failed)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("wall_s per repeat: "
          + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
    print("unscaled host wall_s per repeat: "
          + " ".join(f"{r['host_wall_s']:.4f}" for r in untraced))
    print("mean probe slice s per repeat: "
          + " ".join(f"{r['probe_s']:.6f}" for r in untraced))
    if traced:
        print("traced host wall_s per repeat: "
              + " ".join(f"{r['wall_s']:.4f}" for r in traced))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
