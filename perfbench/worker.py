"""Run one workload repeat in this fresh process and print its result.

    python3 perfbench/worker.py --workload fig3 --seed 1 --out-dir DIR [--traced]

The last line of standard output is one JSON object: wall and set-up
time, peak resident memory, the output digest, the correctness checks and,
with --traced, the per-layer metrics. An untraced repeat also reports the
probe slices a SpeedSampler (reference.py) timed while it ran, and how
much of the wall time they took. run.py starts one of these per repeat so
that memory, imports and lazily built state never carry over.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=["full", "toy"])
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    # spans of a traced repeat must time dispo6 alone
    sampler = None if args.traced else reference.SpeedSampler()
    with sampler or contextlib.nullcontext():
        result = measure(args, sampler)
    if sampler is not None:
        result["slices_s"] = sampler.slices
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace,
            sampler: reference.SpeedSampler | None) -> dict:
    wall_start = time.perf_counter()
    import tracing
    import workloads

    run, run_checks, build_world = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    recorder = None
    if args.traced:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    args.out_dir.mkdir(parents=True)
    setup_s, data = run(args.seed, size, args.out_dir)
    wall_s = time.perf_counter() - wall_start
    # probe slices so far ran inside the wall time
    in_wall_s = sum(sampler.slices) if sampler is not None else 0.0

    result = {
        "wall_s": wall_s,
        "sliced_wall_s": in_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": output_digest(args.out_dir),
        "checks": run_checks(data),
    }
    builds = [setup_s]
    if build_world is not None and recorder is None:
        # one build takes milliseconds: time more once everything else is
        # measured, and report the median
        for _ in range(size["extra_builds"]):
            gc.collect()
            t0 = time.perf_counter()
            build_world(args.seed, size)
            builds.append(time.perf_counter() - t0)
    result["setup_s"] = statistics.median(builds)
    if recorder is not None:
        recorder.write(args.out_dir.parent / f"{args.out_dir.name}-spans.bin")
        counters = data["counters"]
        result["layers"] = tracing.layer_metrics(
            recorder.aggregate(), recorder.counts,
            {"home_agent.dropped_blocked": counters["home_agent"]["dropped_blocked"],
             "mobile_host.disposals": counters["victim"]["disposals"]})
    return result


if __name__ == "__main__":
    sys.exit(main())
