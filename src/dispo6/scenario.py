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
"""

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .addressing import Ipv6Address, NameService
from .adversary import (
    FOUR_HOUR_SCHEDULE,
    SIX_HOUR_SCHEDULE,
    AttackSchedule,
    block_prime_window,
)
from .caller import CallerNode, CallOutcome, StartCall
from .crypto import CertificateAuthority, Ed25519Scheme
from .energy import DEFAULT_PARAMS, Battery, EnergyAccount
from .engine import US_PER_SECOND, LinkModel, SimTime, Simulator
from .home_agent import HomeAgent
from .messages import record
from .mobile_host import MobileHost, Mode
from .stats import sample_mean_std

HOME_PREFIX = 0x20010DB800010000
CORRESPONDENT_PREFIX = 0x20010DB800CC0000
VISITED_PREFIX = 0x20010DB801000000

CALL_LOG_HEADER = "day,correspondent,had_disposable,outcome,time"
DAILY_HEADER = "day,calls,rejected,rejection_rate"
BATTERY_HEADER = "time,remaining,state"


class ConfigError(Exception):
    """Scenario configuration failed validation; message lists the problems."""


class InvariantError(Exception):
    """A finished run broke a conservation invariant: a program fault."""


class RejectionMode(Enum):
    PAPER_FAITHFUL = "paper"
    EXPLICIT_TIME = "explicit"


@dataclass(slots=True)
class ScenarioConfig:
    seed: int = 0
    horizon_days: int = 1000
    correspondents: int = 200
    daily_call_probability: float = 1.0 / 200.0
    call_window_start: float = 8.0
    call_window_end: float = 20.0
    attack_hours: int | None = 4
    attack_start_choices: tuple[int, ...] | None = None
    rejection_mode: RejectionMode = RejectionMode.PAPER_FAITHFUL
    mobility_mode: Mode = Mode.BIDIRECTIONAL_TUNNELING
    latency_s: float = 0.05
    loss_probability: float = 0.0
    pki_enabled: bool = True
    energy_enabled: bool = False
    sleep_timeout_s: float = 10.0
    detection_threshold_pps: float = 10.0
    detection_window_s: float = 10.0
    oob_retry_delay_days: int | None = None
    victim_fqdn: str = "alice.home.example"

    def schedule(self) -> AttackSchedule | None:
        if self.attack_hours is None:
            return None
        if self.attack_start_choices is not None:
            return AttackSchedule(daily_hours=self.attack_hours,
                                  start_choices=self.attack_start_choices)
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
        if self.horizon_days < 0:
            problems.append("horizon_days must be >= 0")
        if self.correspondents < 0:
            problems.append("correspondents must be >= 0")
        if not 0.0 <= self.daily_call_probability <= 1.0:
            problems.append("daily_call_probability outside [0,1]")
        if not (0.0 <= self.call_window_start < self.call_window_end <= 24.0):
            problems.append("call_window_start and call_window_end must "
                            "satisfy 0 <= start < end <= 24")
        if self.latency_s < 0:
            problems.append("latency_s must be >= 0")
        if not 0.0 <= self.loss_probability <= 1.0:
            problems.append("loss_probability outside [0,1]")
        for name in ("sleep_timeout_s", "detection_threshold_pps",
                     "detection_window_s"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive")
        if self.oob_retry_delay_days is not None and self.oob_retry_delay_days < 1:
            problems.append("oob_retry_delay_days must be >= 1")
        if not self.victim_fqdn:
            problems.append("victim_fqdn must be non-empty")
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
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioConfig":
        if not isinstance(mapping, dict):
            raise ConfigError("config file must hold a key/value mapping")
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - set(known))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = dict(mapping)
        if "rejection_mode" in kwargs and kwargs["rejection_mode"] is not None:
            try:
                kwargs["rejection_mode"] = RejectionMode(kwargs["rejection_mode"])
            except ValueError:
                raise ConfigError(
                    "rejection_mode must be 'paper' or 'explicit'") from None
        if "mobility_mode" in kwargs and kwargs["mobility_mode"] is not None:
            try:
                kwargs["mobility_mode"] = Mode(kwargs["mobility_mode"])
            except ValueError:
                raise ConfigError(
                    "mobility_mode must be 'route_optimization' or "
                    "'bidirectional_tunneling'") from None
        if isinstance(kwargs.get("attack_start_choices"), list):
            kwargs["attack_start_choices"] = tuple(kwargs["attack_start_choices"])
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
    if typing.get_origin(option) is tuple:
        return f"a list of {typing.get_args(option)[0].__name__}"
    return "a finite number" if option is float else option.__name__


def _fits(value: object, expected: object) -> bool:
    if expected is type(None):
        return value is None
    if isinstance(value, bool) and expected is not bool:
        return False  # YAML true/false is not a number
    if expected is float:
        # inf and nan pass the range checks in validate() and crash later
        return isinstance(value, (int, float)) and math.isfinite(value)
    if typing.get_origin(expected) is tuple:
        item = typing.get_args(expected)[0]
        return isinstance(value, tuple) and all(_fits(v, item) for v in value)
    return isinstance(value, expected)


def fig3_config(variant: str, seed: int = 0,
                days: int = 1000) -> ScenarioConfig:
    """Preset for the two published 1000-day attack experiments."""
    if variant not in ("4h", "6h"):
        raise ConfigError("fig3 variant must be '4h' or '6h'")
    hours = 4 if variant == "4h" else 6
    return ScenarioConfig(seed=seed, horizon_days=days, attack_hours=hours)


@record
class CallRecord(NamedTuple):
    day: int
    correspondent_id: int
    had_disposable: bool
    outcome: CallOutcome
    time: int  # us

    def csv_row(self) -> str:
        return (f"{self.day},{self.correspondent_id},"
                f"{'true' if self.had_disposable else 'false'},"
                f"{self.outcome.value},{SimTime(self.time).hhmm()}")


@dataclass(slots=True)
class DailyStat:
    day: int
    calls: int
    rejected: int

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.calls if self.calls else 0.0


@dataclass(slots=True)
class Metrics:
    total_calls: int
    rejected_calls: int
    rejection_rate: float
    daily: list[DailyStat]
    counters: dict
    energy: dict | None


@dataclass(slots=True)
class ScenarioResult:
    config: ScenarioConfig
    metrics: Metrics
    records: list[CallRecord]
    battery_series: list[tuple[float, float, str]]


class _Recorder:
    """Collects records for the day in flight; sorted before appending."""

    def __init__(self):
        self.current: list[CallRecord] = []

    def add(self, record: CallRecord) -> None:
        self.current.append(record)

    def drain(self) -> list[CallRecord]:
        day_records = sorted(self.current,
                             key=lambda r: (r.time, r.correspondent_id))
        self.current = []
        return day_records


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one seeded scenario day by day.

    Call arrivals: each correspondent calls on each day independently with
    probability p = `daily_call_probability`, at a uniform time in the
    call window. Rather than one draw per correspondent per day, the days
    between a correspondent's calls are drawn as geometric gaps,
    1 + floor(ln(1-U) / ln(1-p)), which has the same joint law and costs
    one draw per call. A day's callers are visited in id order.
    """
    config.validate()
    sim = Simulator(config.seed, LinkModel(config.latency_s,
                                           config.loss_probability))
    names = NameService()
    scheme = Ed25519Scheme() if config.pki_enabled else None
    ca = CertificateAuthority(scheme, sim.rng) if config.pki_enabled else None
    energy = None
    if config.energy_enabled:
        energy = EnergyAccount(Battery(), DEFAULT_PARAMS,
                               config.sleep_timeout_s, 0)
    agent = HomeAgent(sim, "home-agent", HOME_PREFIX)
    victim = MobileHost(sim, "victim", config.victim_fqdn, names,
                        mode=config.mobility_mode, scheme=scheme, ca=ca,
                        pki_required=config.pki_enabled, energy=energy,
                        detection_threshold_pps=config.detection_threshold_pps,
                        detection_window_s=config.detection_window_s)
    victim.attach(agent, VISITED_PREFIX)
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
    recorder = _Recorder()

    def on_start_call(node: CallerNode, token: StartCall) -> None:
        t0 = sim.now_us
        had = node.has_address_for(token.target_fqdn)
        if not had and token.coincides_with_attack:
            # paper mode: the call met the attack, no handshake runs
            recorder.add(CallRecord(day=token.day,
                                    correspondent_id=token.correspondent_id,
                                    had_disposable=False,
                                    outcome=CallOutcome.REJECTED_PRIME_BLOCKED,
                                    time=t0))
            return
        node.place_call(
            token.target_fqdn,
            lambda outcome: recorder.add(CallRecord(
                day=token.day, correspondent_id=token.correspondent_id,
                had_disposable=had, outcome=outcome, time=t0)))

    for node in correspondents:
        node.on_start_call = on_start_call

    records: list[CallRecord] = []
    daily: list[DailyStat] = []
    battery_series: list[tuple[float, float, str]] = []
    oob_due: dict[int, list[int]] = {}
    window_hours = config.call_window_end - config.call_window_start
    p_call = config.daily_call_probability
    log_no_call = math.log1p(-p_call) if p_call < 1.0 else None

    def next_call_day(day: int) -> float:
        if log_no_call is None:
            return day + 1
        # float floor division: a gap past any horizon is inf, not an error
        return day + 1 + math.log1p(-sim.rng.random()) // log_no_call

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
                correspondents[corr_id].learn_address(config.victim_fqdn, hoa)
        if schedule is not None:
            # drawn in both modes, so a mode switch leaves the stream alone
            start = schedule.draw_start(sim.rng)
            if explicit:
                block_prime_window(sim, victim, SimTime.at(day, start),
                                   SimTime.at(day, start + schedule.daily_hours))
        for i in sorted(calls_due.pop(day, ())):
            hour = config.call_window_start + sim.rng.random() * window_hours
            slack = sim.rng.random()  # paper-mode coincidence draw
            sim.call_at(SimTime.at(day, hour), correspondents[i].node_id,
                        StartCall(target_fqdn=config.victim_fqdn, day=day,
                                  correspondent_id=i,
                                  coincides_with_attack=slack < p_reject))
            following = next_call_day(day)
            if following < config.horizon_days:
                calls_due.setdefault(int(following), []).append(i)
        sim.run_until(SimTime.at(day + 1, 0))
        day_records = recorder.drain()
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
            energy.advance(sim.now_us)
            state = ("dead" if energy.dead
                     else energy.state_at(sim.now_us).value)
            battery_series.append((sim.now_us / US_PER_SECOND,
                                   energy.remaining, state))

    _check_invariants(sim, agent, energy)
    total = len(records)
    rejected = sum(1 for r in records
                   if r.outcome is CallOutcome.REJECTED_PRIME_BLOCKED)
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
    with open(path, "w", newline="") as handle:
        handle.write(CALL_LOG_HEADER + "\n")
        for record in records:
            handle.write(record.csv_row() + "\n")


def write_daily_series(path: Path | str, daily: list[DailyStat]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(DAILY_HEADER + "\n")
        for stat in daily:
            handle.write(f"{stat.day},{stat.calls},{stat.rejected},"
                         f"{stat.rejection_rate:.6f}\n")


def write_battery_series(path: Path | str,
                         series: list[tuple[float, float, str]]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(BATTERY_HEADER + "\n")
        for t, remaining, state in series:
            handle.write(f"{t:.3f},{remaining:.9f},{state}\n")


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


@dataclass(slots=True)
class SeedSummary:
    seed: int
    total_calls: int
    rejected_calls: int
    rejection_rate: float
    daily_rejected: list[int]


@dataclass(slots=True)
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


def _sweep_worker(args: tuple[ScenarioConfig, int]) -> SeedSummary:
    config, seed = args
    run = run_scenario(dataclasses.replace(config, seed=seed))
    return SeedSummary(seed=seed,
                       total_calls=run.metrics.total_calls,
                       rejected_calls=run.metrics.rejected_calls,
                       rejection_rate=run.metrics.rejection_rate,
                       daily_rejected=[d.rejected for d in run.metrics.daily])


def run_sweep(config: ScenarioConfig, seeds: list[int],
              jobs: int = 1) -> SweepResult:
    """Independent runs across seeds; aggregation is order-independent."""
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    config.validate()
    work = [(config, seed) for seed in sorted(seeds)]
    if jobs > 1:
        import multiprocessing  # only a parallel sweep pays its import

        with multiprocessing.Pool(jobs) as pool:
            summaries = pool.map(_sweep_worker, work)
    else:
        summaries = [_sweep_worker(item) for item in work]
    summaries.sort(key=lambda s: s.seed)
    rejected = [float(s.rejected_calls) for s in summaries]
    rates = [s.rejection_rate for s in summaries]
    mean_rejected, std_rejected = sample_mean_std(rejected)
    mean_rate, std_rate = sample_mean_std(rates)
    return SweepResult(summaries=summaries, mean_rejected=mean_rejected,
                       std_rejected=std_rejected, mean_rate=mean_rate,
                       std_rate=std_rate)
