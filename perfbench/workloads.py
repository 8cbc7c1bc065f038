"""The benchmark's workloads, each built from a seed through dispo6's public API.

A workload function takes the workload seed, a size preset and an output
directory. It returns its set-up time and the values its correctness
checks need. Everything it writes to the output directory goes into the
output digest. Where set-up takes only milliseconds, a world builder is
listed too, so that the worker can time more builds once the run is over.
"""

import json
import random
import time
from dataclasses import asdict
from pathlib import Path

import yaml

import checks
from dispo6 import cli
from dispo6.addressing import Ipv6Address, NameService
from dispo6.adversary import AttackSchedule, Flooder, run_scheduled_prime_attack
from dispo6.caller import CallerNode, StartCall
from dispo6.crypto import CertificateAuthority, Ed25519Scheme
from dispo6.energy import (
    DEFAULT_PARAMS,
    Battery,
    EnergyAccount,
    drain_rate,
    flood_profile,
    lifetime_under,
)
from dispo6.engine import EPOCH, SimTime, Simulator
from dispo6.home_agent import HomeAgent
from dispo6.mobile_host import MobileHost, Mode

HOME_PREFIX = 0x20010DB800010000
VISITED_PREFIX = 0x20010DB801000000
PEER_PREFIX = 0x20010DB800CC0000
ATTACKER = Ipv6Address(0x20010DB8BEEF0000, 0xA)
VICTIM_FQDN = "alice.home.example"

# Seed kept out of every tuning run, for confirming a claimed gain.
CONFIRM_SEED = 7919

SIZES = {
    "full": {
        "fig3": {"correspondents": 2000, "days": 1000},
        "flood_drain": {"lifetime_s": 675.0, "extra_builds": 300},
        "prime_attack": {"days": 1, "flood_pps": 20.0, "callers": 300,
                         "bots": 5, "bursts_per_day": 24, "burst_len": 6,
                         "extra_builds": 12},
    },
    "toy": {
        "fig3": {"correspondents": 50, "days": 60},
        "flood_drain": {"lifetime_s": 50.0, "extra_builds": 2},
        "prime_attack": {"days": 1, "flood_pps": 0.5, "callers": 5,
                         "bots": 1, "bursts_per_day": 2, "burst_len": 6,
                         "extra_builds": 1},
    },
}

FLOOD_PPS = 100.0
FIG3_ATTACK_HOURS = 4
# One fixed window: a drawn start would change with the seed how many
# connected peers each care-of rotation notifies, and with it the work.
PRIME_SCHEDULE = AttackSchedule(daily_hours=4, start_choices=(12,))


class Probe:
    """Marks the end of set-up inside `run_scenario`: the first call into
    the event loop."""

    def __init__(self):
        self.first_run_at: float | None = None

    def install(self) -> None:
        for attr in ("run_until", "run"):
            original = getattr(Simulator, attr)

            def probe(sim, *args, _original=original, **kwargs):
                if self.first_run_at is None:
                    self.first_run_at = time.perf_counter()
                return _original(sim, *args, **kwargs)

            setattr(Simulator, attr, probe)


def _counters(sim: Simulator, agent: HomeAgent, host: MobileHost) -> dict:
    return {"engine": asdict(sim.counters),
            "home_agent": asdict(agent.counters),
            "victim": asdict(host.counters)}


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- fig3 ------------------------------------------------------------------


def fig3(seed: int, size: dict, out_dir: Path) -> tuple[float, dict]:
    """Paper Fig. 3 run through the CLI, as `dispo6 run --config` does it."""
    probe = Probe()
    probe.install()
    t0 = time.perf_counter()
    config = {"seed": seed, "horizon_days": size["days"],
              "correspondents": size["correspondents"],
              "attack_hours": FIG3_ATTACK_HOURS, "rejection_mode": "paper",
              "pki_enabled": True, "energy_enabled": False,
              "mobility_mode": "bidirectional_tunneling"}
    config_path = out_dir.parent / f"{out_dir.name}-config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True))
    status = cli.main(["run", "--config", str(config_path),
                       "--out-dir", str(out_dir)])
    if status != 0:
        raise RuntimeError(f"dispo6 run exited with {status}")
    setup_s = probe.first_run_at - t0
    attempts = rejected = 0
    with open(out_dir / "calls.csv") as handle:
        next(handle)
        for line in handle:
            _, _, had_disposable, outcome, _ = line.rstrip("\n").split(",")
            if had_disposable == "false":
                attempts += 1
                rejected += outcome == "rejected_prime_blocked"
    metrics = json.loads((out_dir / "metrics.json").read_text())
    return setup_s, {"counters": metrics["counters"],
                     "first_contacts": attempts,
                     "first_contact_rejections": rejected}


def fig3_checks(data: dict) -> list[tuple[str, bool]]:
    return [
        ("traffic_conserved", checks.traffic_conserved(data["counters"]["engine"])),
        ("agent_conserved", checks.agent_conserved(data["counters"]["home_agent"])),
        ("first_contact_rejection_rate", checks.first_contact_rejections_within_bound(
            data["first_contacts"], data["first_contact_rejections"],
            FIG3_ATTACK_HOURS)),
    ]


# -- flood_drain -------------------------------------------------------------


def flood_world(seed: int, size: dict):
    """Energy-accounted victim, one peer's disposable and a flooder aimed at it.

    The battery is sized so that the 100 pkt/s flood empties it in
    `lifetime_s` seconds.
    """
    # the seed sets the flood's phase within one packet interval
    start_s = random.Random(seed).random() / FLOOD_PPS
    lifetime_s = size["lifetime_s"]
    battery = Battery(capacity=lifetime_s * drain_rate(DEFAULT_PARAMS,
                                                       flood_profile(FLOOD_PPS)))
    sim = Simulator(seed)
    names = NameService()
    agent = HomeAgent(sim, "home-agent", HOME_PREFIX)
    account = EnergyAccount(battery, DEFAULT_PARAMS, 10.0, EPOCH)
    host = MobileHost(sim, "victim", VICTIM_FQDN, names,
                      mode=Mode.BIDIRECTIONAL_TUNNELING, energy=account,
                      detection_threshold_pps=1e9)
    host.attach(agent, VISITED_PREFIX)
    peer = CallerNode(sim, "peer", "bob.peers.example",
                      Ipv6Address(PEER_PREFIX, 2), names)
    hoa = host.grant_out_of_band(peer.fqdn)
    flooder = Flooder(sim, "flooder", ATTACKER)
    flooder.flood_between(SimTime.from_seconds(start_s),
                          SimTime.from_seconds(start_s + 2 * lifetime_s),
                          hoa, FLOOD_PPS)
    return sim, agent, host, account, flooder, start_s


def flood_drain(seed: int, size: dict, out_dir: Path) -> tuple[float, dict]:
    """Packet-level 100 pkt/s flood on one disposable until the battery dies."""
    t0 = time.perf_counter()
    sim, agent, host, account, flooder, start_s = flood_world(seed, size)
    setup_s = time.perf_counter() - t0
    while not account.dead:
        sim.run_until(sim.now.plus_seconds(1.0))
    battery = account.battery
    ledger = {f: getattr(account, f) for f in
              ("consumed_packets", "consumed_active", "consumed_powersave",
               "recharged", "active_us", "powersave_us", "packets", "dead")}
    ledger.update(capacity=battery.capacity, remaining=account.remaining,
                  dead_at_us=account.dead_at.micros)
    data = {"counters": _counters(sim, agent, host), "ledger": ledger,
            "flood_start_s": start_s, "flooder_sent": flooder.stats.sent,
            "replies": flooder.stats.replies_received}
    _write_json(out_dir / "summary.json", data)
    data["lifetime_s"] = 3600.0 * lifetime_under(DEFAULT_PARAMS, battery,
                                                 flood_profile(FLOOD_PPS))
    return setup_s, data


def flood_drain_checks(data: dict) -> list[tuple[str, bool]]:
    ledger = data["ledger"]
    return [
        ("traffic_conserved", checks.traffic_conserved(data["counters"]["engine"])),
        ("agent_conserved", checks.agent_conserved(data["counters"]["home_agent"])),
        ("death_matches_lifetime", checks.death_matches_lifetime(
            ledger["dead_at_us"] / 1e6 if ledger["dead"] else None,
            data["lifetime_s"])),
        ("ledger_balances", checks.ledger_balances(
            ledger, DEFAULT_PARAMS, data["counters"]["victim"]["pings"])),
    ]


# -- prime_attack ------------------------------------------------------------


def prime_world(seed: int, size: dict):
    """Victim under a scheduled packet flood on its prime, callers and bots."""
    rng = random.Random(seed)
    sim = Simulator(seed)
    names = NameService()
    scheme = Ed25519Scheme()
    ca = CertificateAuthority(scheme, sim.rng)
    agent = HomeAgent(sim, "home-agent", HOME_PREFIX)
    victim = MobileHost(sim, "victim", VICTIM_FQDN, names,
                        mode=Mode.ROUTE_OPTIMIZATION, scheme=scheme, ca=ca,
                        pki_required=True)
    victim.attach(agent, VISITED_PREFIX)
    flooder = Flooder(sim, "flooder", ATTACKER)
    run_scheduled_prime_attack(sim, victim, PRIME_SCHEDULE, size["days"],
                               flooder=flooder, flood_rate_pps=size["flood_pps"])
    outcomes: dict[tuple[str, int, int], list[str]] = {}

    def place_call(node: CallerNode, token: StartCall) -> None:
        key = (node.node_id, token.day, token.correspondent_id)
        outcomes[key] = []
        node.place_call(token.target_fqdn,
                        lambda outcome: outcomes[key].append(outcome.value))

    def request(node: CallerNode, token: StartCall) -> None:
        key = (node.node_id, token.day, token.correspondent_id)
        outcomes[key] = []
        node.request_address(token.target_fqdn,
                             lambda result: outcomes[key].append(result.outcome.value))

    def make_caller(i: int, prefix: str, solve_hip: bool) -> CallerNode:
        fqdn = f"{prefix}{i:04d}.peers.example"
        keys = scheme.generate(sim.rng)
        node = CallerNode(sim, f"{prefix}-{i:04d}", fqdn,
                          Ipv6Address(PEER_PREFIX, len(sim.nodes) + 2), names,
                          scheme=scheme, keys=keys,
                          certificate=ca.issue(fqdn, keys.public), ca=ca,
                          require_signed_response=True, solve_hip=solve_hip)
        node.on_start_call = place_call if solve_hip else request
        return node

    callers = [make_caller(i, "corr", True) for i in range(size["callers"])]
    bots = [make_caller(i, "bot", False) for i in range(size["bots"])]
    for day in range(size["days"]):
        for node in callers:
            sim.call_at(SimTime.at(day, rng.uniform(8.0, 20.0)), node.node_id,
                        StartCall(VICTIM_FQDN, day, 0, coincides_with_attack=False))
        for node in bots:
            for burst in range(size["bursts_per_day"]):
                opens = SimTime.at(day, rng.uniform(0.0, 23.9))
                for k in range(size["burst_len"]):
                    sim.call_at(opens.plus_seconds(k), node.node_id,
                                StartCall(VICTIM_FQDN, day,
                                          burst * size["burst_len"] + k,
                                          coincides_with_attack=False))
    return sim, agent, victim, outcomes


def prime_attack(seed: int, size: dict, out_dir: Path) -> tuple[float, dict]:
    """Packet-level daily flood on the prime with callers and HIP-dodging bots."""
    t0 = time.perf_counter()
    sim, agent, victim, outcomes = prime_world(seed, size)
    setup_s = time.perf_counter() - t0
    sim.run()
    with open(out_dir / "calls.csv", "w") as handle:
        handle.write("node,day,index,outcomes\n")
        for (node_id, day, index), seen in sorted(outcomes.items()):
            handle.write(f"{node_id},{day},{index},{'|'.join(seen)}\n")
    data = {"counters": _counters(sim, agent, victim),
            "challenges": victim.responder.hip.challenges_issued,
            "grants": victim.responder.granted_total}
    _write_json(out_dir / "summary.json", data)
    data["resolutions"] = [len(seen) for seen in outcomes.values()]
    return setup_s, data


def prime_attack_checks(data: dict) -> list[tuple[str, bool]]:
    return [
        ("traffic_conserved", checks.traffic_conserved(data["counters"]["engine"])),
        ("agent_conserved", checks.agent_conserved(data["counters"]["home_agent"])),
        ("calls_resolved_once", checks.resolved_once(data["resolutions"])),
    ]


# name -> (workload, its checks, world builder for extra set-up timing)
WORKLOADS = {
    "fig3": (fig3, fig3_checks, None),
    "flood_drain": (flood_drain, flood_drain_checks, flood_world),
    "prime_attack": (prime_attack, prime_attack_checks, prime_world),
}
