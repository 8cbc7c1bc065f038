"""Command-line scenario runner.

    dispo6 run --config scenario.yaml --seed 7 --out-dir out
    dispo6 sweep --config scenario.yaml --seeds 0:100 --out-dir out
    dispo6 fig3 4h --seed 7 --out-dir out
    dispo6 drain flood --rate 100 --out-dir out
    dispo6 run --print-defaults

All randomness derives from the seed, so identical invocations write
byte-identical CSVs. Exit status is 0 on success and 2 on configuration
or I/O errors.

`drain` runs the victim that `run` builds until its battery dies, and
writes its energy ledger's charge and radio state each minute to
`battery.csv`. `drain flood` floods one of the victim's disposables at
`--rate` and runs once more with the victim's flood detection on, into
`battery_defended.csv`.

Importing this module loads neither the scenario runner (`scenario`) nor
`stats`. The `run`, `fig3` and `sweep` commands load the runner; only
`sweep` loads `stats`. `drain` loads the host, home agent and adversary
modules, and neither of the two. Code that imports the CLI without
running one of these commands, and `dispo6 --help`, pay for none of them.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import ConfigError
from .addressing import Ipv6Address, NameService
from .energy import FLOOD_RATE_PPS, write_battery_series
from .engine import US_PER_DAY, US_PER_MINUTE, Simulator

if TYPE_CHECKING:
    from .scenario import ScenarioConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispo6",
        description="Disposable home-address scenario simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("--config", type=Path, help="YAML scenario config")
    run_p.add_argument("--print-defaults", action="store_true",
                       help="print the default config as YAML and exit")
    _common_run_args(run_p)

    sweep_p = sub.add_parser("sweep", help="run a scenario across many seeds")
    sweep_p.add_argument("--config", type=Path, help="YAML scenario config")
    sweep_p.add_argument("--seeds", default="0:100",
                         help="seed set: 'A:B' for range(A,B) or 'a,b,c'")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    sweep_p.add_argument("--out-dir", type=Path, default=Path("out"))
    sweep_p.add_argument("--days", type=int, default=None)
    sweep_p.add_argument("--mode", choices=["paper", "explicit"], default=None)

    fig3_p = sub.add_parser(
        "fig3", help="preset: 1000-day daily-attack call-rejection experiment")
    fig3_p.add_argument("variant", choices=["4h", "6h"])
    _common_run_args(fig3_p)

    drain_p = sub.add_parser(
        "drain", help="run the victim idle or flooded until its battery dies")
    drain_p.add_argument("profile", choices=["idle", "flood"])
    drain_p.add_argument("--rate", type=float, default=None,
                         help="flood packet rate (packets/second)")
    drain_p.add_argument("--out-dir", type=Path, default=Path("out"))
    return parser


def _common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--days", type=int, default=None)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--mode", choices=["paper", "explicit"], default=None)


def _load_config(path: Path | None) -> "ScenarioConfig":
    if path is None:
        raise ConfigError("--config is required (or use --print-defaults)")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # PyYAML loads only where a YAML file is read or written, so a preset
    # command (`fig3`, `drain`) starts without it
    import yaml

    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if mapping is None:
        mapping = {}
    # the scenario runner loads only in the commands that run a scenario
    from .scenario import ScenarioConfig

    return ScenarioConfig.from_mapping(mapping)


def _apply_overrides(config: "ScenarioConfig", args: argparse.Namespace,
                     ) -> "ScenarioConfig":
    from .scenario import RejectionMode  # loaded with the config it overrides

    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "days", None) is not None:
        updates["horizon_days"] = args.days
    if getattr(args, "mode", None) is not None:
        updates["rejection_mode"] = RejectionMode(args.mode)
    if updates:
        config = dataclasses.replace(config, **updates)
    config.validate()
    return config


def _parse_seeds(spec: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad --seeds spec {spec!r}") from None
    if not seeds:
        raise ConfigError(f"--seeds spec {spec!r} names no seeds")
    return seeds


def _run_and_write(config: "ScenarioConfig", args: argparse.Namespace,
                   prefix: str = "") -> int:
    # read from the module at call time, so a tracer that rebinds them there
    # times these calls
    from .scenario import (
        run_scenario,
        write_battery_series,
        write_call_log,
        write_daily_series,
        write_metrics_json,
    )

    config = _apply_overrides(config, args)
    result = run_scenario(config)
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_call_log(out_dir / "calls.csv", result.records)
    write_daily_series(out_dir / "daily_rejections.csv", result.metrics.daily)
    write_metrics_json(out_dir / "metrics.json", result.metrics)
    if result.battery_series:
        write_battery_series(out_dir / "battery.csv", result.battery_series)
    metrics = result.metrics
    print(f"{prefix}seed={config.seed} days={config.horizon_days} "
          f"calls={metrics.total_calls} rejected={metrics.rejected_calls} "
          f"rate={metrics.rejection_rate:.4f} -> {out_dir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "print_defaults", False):
        import yaml

        from .scenario import ScenarioConfig

        print(yaml.safe_dump(ScenarioConfig().to_mapping(), sort_keys=False),
              end="")
        return 0
    return _run_and_write(_load_config(args.config), args)


def _cmd_fig3(args: argparse.Namespace) -> int:
    from .scenario import fig3_config  # fig3 runs a scenario

    return _run_and_write(fig3_config(args.variant), args,
                          prefix=f"fig3 {args.variant} ")


def _cmd_sweep(args: argparse.Namespace) -> int:
    # a sweep runs scenarios and tests their trend
    from .scenario import run_sweep
    from .stats import mann_kendall

    config = _apply_overrides(_load_config(args.config), args)
    seeds = _parse_seeds(args.seeds)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    sweep = run_sweep(config, seeds, jobs=args.jobs)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / "sweep.csv", "w", newline="") as handle:
        handle.write("seed,total_calls,rejected_calls,rejection_rate\n")
        for s in sweep.summaries:
            handle.write(f"{s.seed},{s.total_calls},{s.rejected_calls},"
                         f"{s.rejection_rate:.6f}\n")
    daily = sweep.seed_averaged_daily()
    # Fig. 3: daily rejections fall as correspondents collect disposables
    trend = mann_kendall(daily) if len(daily) >= 3 else None
    summary = {
        "seeds": len(sweep.summaries),
        "mean_rejected": sweep.mean_rejected,
        "std_rejected": sweep.std_rejected,
        "mean_rate": sweep.mean_rate,
        "std_rate": sweep.std_rate,
        "trend_s": trend.s if trend else None,
        "trend_z": trend.z if trend else None,
        "trend_p_decreasing": trend.p_decreasing if trend else None,
    }
    with open(args.out_dir / "sweep_summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"sweep seeds={len(sweep.summaries)} "
          f"mean_rejected={sweep.mean_rejected:.3f} "
          f"std_rejected={sweep.std_rejected:.3f} -> {args.out_dir}")
    return 0


def _drained(rate_pps: float | None, detect: bool,
             ) -> tuple[list[tuple[float, float, str]], int]:
    """The victim `run` builds, flooded at `rate_pps` on one out-of-band
    disposable unless that is None: its ledger's row each minute until the
    battery dies, the last at the instant of death, and its alert count.
    The run ends with the conservation check a scenario run makes."""
    # the victim and its attacker load here, and no scenario runner
    from .adversary import Flooder
    from .mobile_host import CORRESPONDENT_PREFIX, attached_victim, check_invariants
    from .monitor import DETECTION_THRESHOLD_PPS

    sim = Simulator(0)
    victim = attached_victim(sim, NameService(), True, detection_threshold_pps=(
        DETECTION_THRESHOLD_PPS if detect else math.inf))
    energy = victim.energy
    if rate_pps is not None:
        flooder = Flooder(sim, "flooder", Ipv6Address(CORRESPONDENT_PREFIX, 1))
        # longer than any battery lasts: an idle one lasts a day
        flooder.flood_between(0, 2 * US_PER_DAY,
                              victim.grant_out_of_band("flooder.peers.example"),
                              rate_pps)
    series = []
    now_us = 0
    while not energy.dead:
        sim.run_until(now_us)
        series.append(energy.row(now_us))
        now_us += US_PER_MINUTE
    # the last row at the instant of death, not at the minute after it
    series[-1] = energy.row(energy.dead_at)
    check_invariants(sim, victim.ha, energy)
    return series, victim.counters.alerts


def _cmd_drain(args: argparse.Namespace) -> int:
    flood = args.profile == "flood"
    if not flood and args.rate is not None:
        raise ConfigError("--rate is the flood's packet rate; idle takes none")
    rate = FLOOD_RATE_PPS if args.rate is None else args.rate
    # the flooder's own rule, before anything is written
    from .adversary import _interval_us
    try:
        _interval_us(rate)
    except ValueError as exc:
        raise ConfigError(f"--rate: {exc}") from None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    report = f"profile={args.profile}"
    # a flood runs twice: with detection off, then with the host's monitor on
    for detect in (False, True) if flood else (False,):
        series, alerts = _drained(rate if flood else None, detect)
        name = "battery_defended.csv" if detect else "battery.csv"
        write_battery_series(args.out_dir / name, series)
        report += (f" {name} lifetime_hours={series[-1][0] / 3600.0:.3f}"
                   f" alerts={alerts}")
    print(f"{report} -> {args.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "fig3": _cmd_fig3,
        "sweep": _cmd_sweep,
        "drain": _cmd_drain,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
