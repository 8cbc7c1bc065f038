"""Declarative scenario runner for the call-rejection experiments.

One victim publishes its name; a pool of correspondents discovers it and
calls over a long horizon while an attacker floods the victim's prime
address for a few hours daily. Correspondents who already hold a
disposable address always get through; first contacts fail when they
meet an attack window.

The rejection mode says how a first contact meets the attack. In "paper"
mode it is rejected with the paper's fixed per-call probability,
(hours/12)^2, drawn without running the handshake. In "explicit" mode the
victim's policy blocks its prime for each day's drawn window
(`adversary.block_prime_window`), so the home agent drops the address
request and the handshake times out; the rejection rate is then the
window's share of the call window, hours/12. The two disagree by
construction, so the mode is part of the configuration rather than a
hidden choice.

`ScenarioConfig` holds only what a run varies. What the paper fixes is a
constant here or in the module that uses it; the config's docstring says
which.
"""

import dataclasses
import json
import math
import os
import random
import types
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import ConfigError
from .addressing import Ipv6Address, NameService
from .adversary import (
    FOUR_HOUR_SCHEDULE,
    SIX_HOUR_SCHEDULE,
    AttackSchedule,
    block_prime_window,
)
from .caller import CallerNode, CallOutcome, StartCall
from .crypto import CertificateAuthority, Ed25519Scheme
from .energy import EnergyAccount
# the writer of a run's battery.csv, found here with the other writers
from .energy import write_battery_series as write_battery_series
from .engine import (
    US_PER_DAY,
    Simulator,
    day_hour_us,
    hhmm,
)
from .home_agent import HomeAgent
from .messages import _tuple_new, record
from .mobile_host import CORRESPONDENT_PREFIX, VICTIM_FQDN, Mode, attached_victim

# the paper's call window, in hours of the day
CALL_WINDOW_START = 8.0
CALL_WINDOW_END = 20.0

CALL_LOG_HEADER = "day,correspondent,had_disposable,outcome,time"
DAILY_HEADER = "day,calls,rejected,rejection_rate"


class InvariantError(Exception):
    """A finished run broke a conservation invariant: a program fault."""


class RejectionMode(Enum):
    PAPER_FAITHFUL = "paper"
    EXPLICIT_TIME = "explicit"


@dataclass(slots=True)
class ScenarioConfig:
    """The settings a run varies. `attack_hours` picks a published
    schedule, `adversary.FOUR_HOUR_SCHEDULE` or `SIX_HOUR_SCHEDULE`, or
    None for no attack.

    What the paper fixes is no setting, and a config file naming it is
    refused as an unknown key:
    - the victim's name is `VICTIM_FQDN`;
    - the 08:00-20:00 call window is `CALL_WINDOW_START`..`CALL_WINDOW_END`;
    - the attack starts are the published schedule's;
    - the link is lossless, with the engine's `LINK_LATENCY_S`;
    - the victim detects floods with `monitor.DETECTION_THRESHOLD_PPS`
      over `monitor.DETECTION_WINDOW_S`;
    - the victim and its battery are `mobile_host.attached_victim`'s.
    """

    seed: int = 0
    horizon_days: int = 1000
    correspondents: int = 200
    daily_call_probability: float = 1.0 / 200.0
    attack_hours: int | None = 4
    rejection_mode: RejectionMode = RejectionMode.PAPER_FAITHFUL
    mobility_mode: Mode = Mode.BIDIRECTIONAL_TUNNELING
    pki_enabled: bool = True
    energy_enabled: bool = False
    oob_retry_delay_days: int | None = None

    def schedule(self) -> AttackSchedule | None:
        if self.attack_hours is None:
            return None
        for published in (FOUR_HOUR_SCHEDULE, SIX_HOUR_SCHEDULE):
            if published.daily_hours == self.attack_hours:
                return published
        raise ValueError("attack duration must be 4 or 6 hours")

    def validate(self) -> None:
        problems = []
        for f in dataclasses.fields(self):
            problem = _type_problem(f.name, getattr(self, f.name), f.type)
            if problem is not None:
                problems.append(problem)
        if problems:
            # value checks below assume the declared types
            raise ConfigError("; ".join(problems))
        if self.seed < 0:
            # `random.Random` seeds with |seed|: -3 would rerun seed 3
            problems.append("seed must be >= 0")
        if self.horizon_days < 0:
            problems.append("horizon_days must be >= 0")
        if self.correspondents < 0:
            problems.append("correspondents must be >= 0")
        if not 0.0 <= self.daily_call_probability <= 1.0:
            problems.append("daily_call_probability outside [0,1]")
        if self.oob_retry_delay_days is not None and self.oob_retry_delay_days < 1:
            problems.append("oob_retry_delay_days must be >= 1")
        if self.attack_hours is not None:
            try:
                self.schedule()
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))

    # -- config file round trip --------------------------------------------

    def to_mapping(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Enum):
                value = value.value
            out[f.name] = value
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioConfig":
        if not isinstance(mapping, dict):
            raise ConfigError("config file must hold a key/value mapping")
        known = {f.name: f for f in dataclasses.fields(cls)}
        # a YAML key may be a number or a boolean: named as text
        unknown = sorted(map(str, set(mapping) - set(known)))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = dict(mapping)
        for name in ("rejection_mode", "mobility_mode"):
            if kwargs.get(name) is not None:
                mode = known[name].type
                try:
                    kwargs[name] = mode(kwargs[name])
                except ValueError:
                    choices = " or ".join(f"'{m.value}'" for m in mode)
                    raise ConfigError(f"{name} must be {choices}") from None
        config = cls(**kwargs)
        config.validate()
        return config


def _type_problem(name: str, value: object, annotation: object) -> str | None:
    """None if `value` fits the field's declared type, else the complaint."""
    options = (typing.get_args(annotation)
               if isinstance(annotation, types.UnionType) else (annotation,))
    if any(_fits(value, option) for option in options):
        return None
    expected = " or ".join(_type_name(option) for option in options)
    return f"{name} must be {expected}, got {value!r}"


def _type_name(option: object) -> str:
    if option is type(None):
        return "null"
    return "a finite number" if option is float else option.__name__


def _fits(value: object, expected: object) -> bool:
    if expected is type(None):
        return value is None
    if isinstance(value, bool) and expected is not bool:
        return False  # YAML true/false is not a number
    if expected is float:
        # YAML reads .inf and .nan as floats; no setting takes them
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, expected)


def fig3_config(variant: str) -> ScenarioConfig:
    """Preset for the two published 1000-day attack experiments."""
    if variant not in ("4h", "6h"):
        raise ConfigError("fig3 variant must be '4h' or '6h'")
    hours = 4 if variant == "4h" else 6
    return ScenarioConfig(attack_hours=hours)


@record
class CallRecord:
    day: int
    correspondent_id: int
    had_disposable: bool
    outcome: CallOutcome
    time: int  # us


@record
class DailyStat:
    day: int
    calls: int
    rejected: int

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.calls if self.calls else 0.0


@record
class Metrics:
    total_calls: int
    rejected_calls: int
    rejection_rate: float
    daily: list[DailyStat]
    counters: dict
    energy: dict | None


@record
class ScenarioResult:
    config: ScenarioConfig
    metrics: Metrics
    records: list[CallRecord]
    battery_series: list[tuple[float, float, str]]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one seeded scenario day by day.

    Call arrivals: each correspondent calls on each day independently with
    probability p = `daily_call_probability`, at a uniform time in the
    call window. Rather than one draw per correspondent per day, the days
    between a correspondent's calls are drawn as geometric gaps,
    1 + floor(ln(1-U) / ln(1-p)), which has the same joint law and costs
    one draw per call. A day's callers are visited in id order.

    The workload (call days, call hours, the paper-mode coin and the
    attack starts) is drawn from its own stream, so what the protocol
    draws from `sim.rng` never moves a call.
    """
    config.validate()
    sim = Simulator(config.seed)
    # a str seed is hashed with SHA-512, whatever PYTHONHASHSEED is
    workload = random.Random(f"workload/{config.seed}")
    names = NameService()
    scheme = Ed25519Scheme() if config.pki_enabled else None
    ca = CertificateAuthority(scheme, sim.rng) if config.pki_enabled else None
    victim = attached_victim(sim, names, config.energy_enabled,
                             mode=config.mobility_mode, scheme=scheme, ca=ca,
                             pki_required=config.pki_enabled)
    agent, energy = victim.ha, victim.energy
    correspondents = []
    for i in range(config.correspondents):
        fqdn = f"corr{i:04d}.peers.example"
        keys = scheme.generate(sim.rng) if scheme else None
        cert = ca.issue(fqdn, keys.public) if ca else None
        correspondents.append(CallerNode(
            sim, f"corr-{i:04d}", fqdn,
            Ipv6Address(CORRESPONDENT_PREFIX, i + 2), names,
            scheme=scheme, keys=keys, certificate=cert, ca=ca,
            require_signed_response=config.pki_enabled))

    schedule = config.schedule()
    explicit = config.rejection_mode is RejectionMode.EXPLICIT_TIME
    p_reject = 0.0
    if schedule is not None and not explicit:
        p_reject = schedule.paper_rejection_probability()
    # the day in flight's calls, in the order they end
    ended: list[CallRecord] = []

    def on_start_call(node: CallerNode, token: StartCall) -> None:
        t0 = sim.now_us
        had = node.has_address_for(token.target_fqdn)

        def log(outcome: CallOutcome) -> None:
            if energy is not None and outcome is not CallOutcome.CONNECTED:
                energy.advance(sim.now_us)
                if energy.dead:  # no attack kept this call out
                    outcome = CallOutcome.UNREACHABLE
            ended.append(_tuple_new(CallRecord, (
                token.day, token.correspondent_id, had, outcome, t0)))

        if not had and token.coincides_with_attack:
            # paper mode: the call met the attack, no handshake runs
            log(CallOutcome.REJECTED_PRIME_BLOCKED)
            return
        node.place_call(token.target_fqdn, log)

    for node in correspondents:
        node.on_start_call = on_start_call

    records: list[CallRecord] = []
    daily: list[DailyStat] = []
    battery_series: list[tuple[float, float, str]] = []
    oob_due: dict[int, list[int]] = {}
    window_hours = CALL_WINDOW_END - CALL_WINDOW_START
    p_call = config.daily_call_probability
    log_no_call = math.log1p(-p_call) if p_call < 1.0 else None

    def next_call_day(day: int) -> float:
        if log_no_call is None:
            return day + 1
        # float floor division: a gap past any horizon is inf, not an error
        return day + 1 + math.log1p(-workload.random()) // log_no_call

    calls_due: dict[int, list[int]] = {}  # day -> correspondents calling
    if p_call > 0.0:
        for i in range(config.correspondents):
            first = next_call_day(-1)
            if first < config.horizon_days:
                calls_due.setdefault(int(first), []).append(i)

    for day in range(config.horizon_days):
        for corr_id in oob_due.pop(day, []):
            hoa = victim.grant_out_of_band(correspondents[corr_id].fqdn)
            if hoa is not None:
                correspondents[corr_id].learn_address(VICTIM_FQDN, hoa)
        if schedule is not None:
            # drawn in both modes, so a mode switch leaves the stream alone
            start = schedule.draw_start(workload)
            if explicit:
                block_prime_window(sim, victim, day_hour_us(day, start),
                                   day_hour_us(day, start + schedule.daily_hours))
        for i in sorted(calls_due.pop(day, ())):
            hour = CALL_WINDOW_START + workload.random() * window_hours
            slack = workload.random()  # paper-mode coincidence draw
            sim.call_at(day_hour_us(day, hour), correspondents[i].node_id,
                        _tuple_new(StartCall,
                                   (VICTIM_FQDN, day, i, slack < p_reject)))
            following = next_call_day(day)
            if following < config.horizon_days:
                calls_due.setdefault(int(following), []).append(i)
        sim.run_until((day + 1) * US_PER_DAY)
        day_records = sorted(ended, key=lambda r: (r.time, r.correspondent_id))
        ended.clear()
        records.extend(day_records)
        rejected_today = sum(
            1 for r in day_records
            if r.outcome is CallOutcome.REJECTED_PRIME_BLOCKED)
        daily.append(DailyStat(day=day, calls=len(day_records),
                               rejected=rejected_today))
        if config.oob_retry_delay_days is not None:
            for r in day_records:
                if r.outcome is CallOutcome.REJECTED_PRIME_BLOCKED:
                    oob_due.setdefault(day + config.oob_retry_delay_days,
                                       []).append(r.correspondent_id)
        if energy is not None:
            battery_series.append(energy.row(sim.now_us))

    _check_invariants(sim, agent, energy)
    total = len(records)
    rejected = sum(stat.rejected for stat in daily)
    energy_summary = None
    if energy is not None:
        energy_summary = {
            "remaining": energy.remaining,
            "dead": energy.dead,
            "powersave_fraction": energy.powersave_fraction(sim.now_us),
        }
    metrics = Metrics(
        total_calls=total,
        rejected_calls=rejected,
        rejection_rate=(rejected / total) if total else 0.0,
        daily=daily,
        counters={
            "engine": dataclasses.asdict(sim.counters),
            "home_agent": dataclasses.asdict(agent.counters),
            "victim": dataclasses.asdict(victim.counters),
            "responder": {
                "grants": victim.responder.granted_total,
                "refusals": victim.responder.refusals,
                "notifications": victim.responder.notifications,
                "dropped_bad_signature": victim.responder.dropped_bad_signature,
            },
        },
        energy=energy_summary)
    return ScenarioResult(config=config, metrics=metrics, records=records,
                          battery_series=battery_series)


def _check_invariants(sim: Simulator, agent: HomeAgent,
                      energy: EnergyAccount | None) -> None:
    broken = []
    if not sim.counters.conserved():
        broken.append(f"engine traffic not conserved: {sim.counters}")
    if not agent.counters.conserved():
        broken.append(f"home-agent traffic not conserved: {agent.counters}")
    if energy is not None and not energy.balanced():
        broken.append(f"energy ledger does not balance: {energy}")
    if broken:
        raise InvariantError("; ".join(broken))


# -- CSV emission ------------------------------------------------------------


def write_call_log(path: Path | str, records: list[CallRecord]) -> None:
    """One row per call, streamed."""
    with open(path, "w", newline="") as handle:
        handle.write(CALL_LOG_HEADER + "\n")
        handle.writelines(
            f"{day},{correspondent},{'true' if had else 'false'},"
            f"{outcome.value},{hhmm(time)}\n"
            for day, correspondent, had, outcome, time in records)


def write_daily_series(path: Path | str, daily: list[DailyStat]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(DAILY_HEADER + "\n")
        for stat in daily:
            handle.write(f"{stat.day},{stat.calls},{stat.rejected},"
                         f"{stat.rejection_rate:.6f}\n")


def write_metrics_json(path: Path | str, metrics: Metrics) -> None:
    payload = {
        "total_calls": metrics.total_calls,
        "rejected_calls": metrics.rejected_calls,
        "rejection_rate": metrics.rejection_rate,
        "counters": metrics.counters,
        "energy": metrics.energy,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- multi-seed sweeps ------------------------------------------------------


@record
class SeedSummary:
    seed: int
    total_calls: int
    rejected_calls: int
    rejection_rate: float
    daily_rejected: list[int]


@record
class SweepResult:
    summaries: list[SeedSummary]
    mean_rejected: float
    std_rejected: float
    mean_rate: float
    std_rate: float

    def seed_averaged_daily(self) -> list[float]:
        if not self.summaries:
            return []
        horizon = len(self.summaries[0].daily_rejected)
        n = len(self.summaries)
        return [sum(s.daily_rejected[d] for s in self.summaries) / n
                for d in range(horizon)]


def _sweep_worker(config: ScenarioConfig) -> SeedSummary:
    run = run_scenario(config)
    return SeedSummary(seed=config.seed,
                       total_calls=run.metrics.total_calls,
                       rejected_calls=run.metrics.rejected_calls,
                       rejection_rate=run.metrics.rejection_rate,
                       daily_rejected=[d.rejected for d in run.metrics.daily])


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_sweep(config: ScenarioConfig, seeds: list[int],
              jobs: int = 1) -> SweepResult:
    """Independent runs across seeds; aggregation is order-independent."""
    from .stats import sample_mean_std  # a single run loads no statistics

    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    seeds = sorted(seeds)
    # a repeated seed reruns one run and counts it as independent samples
    repeated = sorted({seed for seed, after in zip(seeds, seeds[1:])
                       if seed == after})
    if repeated:
        raise ConfigError(f"sweep seeds must be distinct, repeated: {repeated}")
    work = [dataclasses.replace(config, seed=seed) for seed in seeds]
    for each in work:
        each.validate()  # every seed before any run
    # a worker per run at most, and per CPU this process may run on
    jobs = min(jobs, len(work), _usable_cpus())
    if jobs > 1:
        import multiprocessing  # only a parallel sweep pays its import

        with multiprocessing.Pool(jobs) as pool:
            summaries = pool.map(_sweep_worker, work)
    else:
        summaries = [_sweep_worker(each) for each in work]
    rejected = [float(s.rejected_calls) for s in summaries]
    rates = [s.rejection_rate for s in summaries]
    mean_rejected, std_rejected = sample_mean_std(rejected)
    mean_rate, std_rate = sample_mean_std(rates)
    return SweepResult(summaries=summaries, mean_rejected=mean_rejected,
                       std_rejected=std_rejected, mean_rate=mean_rate,
                       std_rate=std_rate)
