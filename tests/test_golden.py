"""Golden outputs: SHA-256 digests of seeded runs, pinned byte for byte.

A change to the engine, the energy ledger or the packet path must leave
these digests alone unless it means to change what the simulation does;
if it does, the new digests belong in the same change, with the reason.
"""

import dataclasses
import hashlib
import json

import pytest
import yaml

from dispo6 import cli
from dispo6.addressing import Ipv6Address, NameService
from dispo6.adversary import (
    AttackSchedule,
    Flooder,
    _interval_us,
    run_scheduled_prime_attack,
)
from dispo6.caller import CallerNode, StartCall
from dispo6.crypto import CertificateAuthority, Ed25519Scheme
from dispo6.energy import (
    DEFAULT_PARAMS,
    Battery,
    EnergyAccount,
    drain_rate,
    flood_profile,
)
from dispo6.engine import EPOCH, SimTime, Simulator, day_hour_us
from dispo6.home_agent import HomeAgent
from dispo6.mobile_host import (
    CORRESPONDENT_PREFIX,
    VICTIM_FQDN,
    MobileHost,
    Mode,
    attached_victim,
)
from dispo6.scenario import RejectionMode, fig3_config

from conftest import HOME_PREFIX, PEER_PREFIX, VISITED_PREFIX

RUN_OUTPUTS = ("calls.csv", "daily_rejections.csv", "metrics.json")

# The three fig3 sets were re-pinned when the workload (call days and
# hours, the paper-mode coin, attack starts) got a random stream of its
# own, apart from the protocol's `sim.rng`: the same law of arrivals,
# another stream. Seed 0 now gives 4h 1058 calls / 33 rejected (was
# 1035 / 16), 6h 1008 / 63 (was 1002 / 69) and explicit 4h 1058 / 97
# (was 994 / 102); the oracle test in tests/test_scenario.py passed
# before and after. Re-pinned again when the explicit-mode attack starts
# got a stream of their own, so no attack, 4h and 6h draw the same calls,
# and the engine's always-zero `lost` counter left metrics.json: seed 0
# now gives 4h 1104 / 27, 6h 1104 / 68 and explicit 4h 1104 / 100.
FIG3_DIGESTS = {
    "4h": {
        "calls.csv":
            "fceeb9637fbd97b434340026c5f4db628dc9137fc123981e01fda3c45057a9c3",
        "daily_rejections.csv":
            "29cd602b94d912f66f9770dec08faa6f0f5f344479fe192ff9cb96c2c0ca8892",
        "metrics.json":
            "692e8544b3a3a18754d9bf6909d938a7b5a0d958d0977d0f8aaf65442536d4cf",
    },
    "6h": {
        "calls.csv":
            "9875eeac31d586b0287a0f3e30f55fce2cef7795d2c547b800b0101defa096f7",
        "daily_rejections.csv":
            "7ad5c3178d7118cbb6d1e90f76fbe14d1d477a5707799db1b1c26383735653b5",
        "metrics.json":
            "392effebed4e41e06d823758add28922e39851ab1518cf7b3fc64138621936e3",
    },
}

# fig3 4h, seed 0, explicit mode; metrics.json counts the prime's blocks
# and the dropped requests (re-pinned with the sets above)
EXPLICIT_4H_DIGESTS = {
    "calls.csv":
        "aaccc1eb2eea409a0a2b714d99dbad286205eb16ff8821304e0e306ad76d9201",
    "daily_rejections.csv":
        "5df18675fcb10f1a50c9eedb2c33b8fd4b3d1a1bc5f2a7558064077338b9c59f",
    "metrics.json":
        "7ebfc2e40a4c44a510774a4c9f952f0b29886c117765fe27a97d68b602e5a6b9",
}

FLOOD_DIGESTS = {
    # re-pinned when a non-spoofed flood became one rate segment: the
    # per-packet path still gives the old digest (3989800364c2...,
    # tests/test_segments.py runs both), and the segment gives every
    # counter of it, but the engine processed 9 events instead of 23975,
    # and the ledger charges a run at a time, so consumed_packets and
    # consumed_active differ in their last bits (0.0010128019323671085 ->
    # ...1494, 0.0012094202898551142 -> ...0734). Re-pinned when `pending`
    # began to count a segment's emission timer and packets in flight:
    # only pending 0 -> 11 moved, the per-packet path's count at 60 s.
    # Re-pinned when the engine's always-zero `lost` counter went
    "drain_tunnel":
        "b35b9fd115eb95976cb00ef56f844221decbd212419c1ef501058f455e80f726",
    # re-pinned when the host stopped announcing its new care-of address
    # from the disposable that had just tripped the alert, and began to
    # charge the binding update of a care-of rotation: only
    # peer_binding_updates 101 -> 100, engine sent 6318 -> 6317 and
    # unroutable 208 -> 207 moved; the ledger is bit-identical, because
    # one uncharged binding update got charged and one charged one went.
    # Re-pinned again when a disposal began to rotate the care-of address
    # before it sends the block request, so the home agent's ACK reaches
    # the host instead of the abandoned address: only engine delivered
    # 6105 -> 6106, unroutable 207 -> 206 and processed 12105 -> 12106
    # moved, and the ledger's packets 410 -> 412 (the ACK is received and
    # link-acked), with consumed_packets and remaining to match.
    # Re-pinned when `p_powersave` became a napping radio's average draw,
    # wake-ups included (x1.15): the host naps after the block, so only
    # consumed_powersave 0.000491106... -> 0.000564771... and remaining
    # moved. Re-pinned when the ping that trips the alert went unanswered:
    # only engine sent 6317 -> 6316 and unroutable 206 -> 205 (the pong to
    # a spoofed source), and the ledger's packets 412 -> 411, with
    # consumed_packets 5.3614404...e-05 -> 5.3429951...e-05 and remaining
    # to match, moved. Re-pinned when the engine's always-zero `lost`
    # counter went
    "detect_ro_spoofed":
        "72c90f68ceb9e35ec2446e5138abafb20baa6dd28a966cd6aac9423f5113af61",
}

LEDGER_FIELDS = ("consumed_packets", "consumed_active", "consumed_powersave",
                 "recharged", "active_us", "powersave_us", "packets", "dead")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config, tmp_path) -> dict:
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config.to_mapping(), sort_keys=True))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 0
    return {name: sha256((out_dir / name).read_bytes())
            for name in RUN_OUTPUTS}


@pytest.mark.parametrize("variant", ["4h", "6h"])
def test_fig3_run_outputs_are_pinned(variant, tmp_path):
    digests = run_digests(dataclasses.replace(fig3_config(variant), seed=0),
                          tmp_path)
    assert digests == FIG3_DIGESTS[variant]


def test_fig3_explicit_outputs_are_pinned(tmp_path):
    config = dataclasses.replace(fig3_config("4h"), seed=0,
                                 rejection_mode=RejectionMode.EXPLICIT_TIME)
    assert run_digests(config, tmp_path) == EXPLICIT_4H_DIGESTS
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    victim = metrics["counters"]["victim"]
    assert victim["prime_disposals"] == victim["reactivations"] == 1000
    assert (metrics["counters"]["home_agent"]["dropped_blocked"]
            == metrics["rejected_calls"] == 100)


FLOOD_CASES = {
    # detection off, bidirectional tunnelling, battery empty after ~30 s
    "drain_tunnel": dict(mode=Mode.BIDIRECTIONAL_TUNNELING, threshold=1e9,
                         lifetime_s=30.0, spoof=False),
    # default detection blocks the flooded address; RO rotates the care-of
    "detect_ro_spoofed": dict(mode=Mode.ROUTE_OPTIMIZATION, threshold=10.0,
                              lifetime_s=None, spoof=True),
}


def flood_summary(seed: int, mode: Mode, threshold: float,
                  lifetime_s: float | None, spoof: bool,
                  per_packet: bool = False) -> dict:
    """60 s of a 100 pkt/s flood on one disposable of an energy-accounted
    host; `per_packet` takes the flooder's per-packet path."""
    battery = Battery()
    if lifetime_s is not None:
        battery = Battery(capacity=lifetime_s * drain_rate(
            DEFAULT_PARAMS, flood_profile(100.0)))
    sim = Simulator(seed)
    names = NameService()
    agent = HomeAgent(sim, "home-agent", HOME_PREFIX)
    account = EnergyAccount(battery, DEFAULT_PARAMS, 10.0, EPOCH)
    host = MobileHost(sim, "victim", "alice.home.example", names, mode=mode,
                      energy=account, detection_threshold_pps=threshold)
    host.attach(agent, VISITED_PREFIX)
    peer = CallerNode(sim, "peer", "bob.peers.example",
                      Ipv6Address(PEER_PREFIX, 2), names)
    hoa = host.grant_out_of_band(peer.fqdn)
    flooder = Flooder(sim, "flooder", Ipv6Address(0x20010DB8BEEF0000, 0xA))
    start, stop = SimTime.from_seconds(0.0037), SimTime.from_seconds(90)
    if per_packet:
        flooder._flood_packets(start, stop, hoa, _interval_us(100.0), spoof)
    else:
        flooder.flood_between(start, stop, hoa, 100.0, spoof)
    processed = sim.run_until(SimTime.from_seconds(60))
    account.advance(sim.now)
    ledger = {name: getattr(account, name) for name in LEDGER_FIELDS}
    ledger["remaining"] = account.remaining
    ledger["dead_at_us"] = account.dead_at.micros if account.dead_at else None
    return {"processed": processed, "pending": sim.pending(),
            "engine": dataclasses.asdict(sim.counters),
            "home_agent": dataclasses.asdict(agent.counters),
            "victim": dataclasses.asdict(host.counters),
            "flooder": dataclasses.asdict(flooder.stats),
            "ledger": ledger}


@pytest.mark.parametrize("case", sorted(FLOOD_CASES))
def test_flood_counters_and_ledger_are_pinned(case):
    summary = flood_summary(seed=3, **FLOOD_CASES[case])
    # floats serialise through repr, so the digest pins every bit
    blob = json.dumps(summary, sort_keys=True).encode()
    assert sha256(blob) == FLOOD_DIGESTS[case], summary


# the call outcomes and counters of `prime_attack_summary`: 222 alerts on
# the prime, 15 of the 20 calls connected. An event loop that dispatches a
# popped event although a split queued an earlier one gives 94d975747443...
# (the block requests then reach the home agent late, and 10 connect).
# Re-pinned when the ping that trips an alert went unanswered: only engine
# sent and delivered 334050 -> 333828 and processed 1701 -> 1479 moved,
# one pong fewer per alert. Re-pinned when the engine's always-zero
# `lost` counter went
PRIME_ATTACK_DIGEST = (
    "cc3b791b5564eed7c229371f5ec456ec6bd0a2e7b4e3aa3e0ac21dad9d24823f")


def prime_attack_summary(seed: int) -> dict:
    """One day of a 20 pkt/s flood on the prime of a route-optimizing
    victim, 12:00-16:00, and 10 certified callers that each call at a drawn
    time of day and again inside the window. Each alert splits the flood
    segment, and the block request it sends must reach the home agent
    before any later event runs."""
    sim = Simulator(seed)
    names = NameService()
    scheme = Ed25519Scheme()
    ca = CertificateAuthority(scheme, sim.rng)
    victim = attached_victim(sim, names, False, mode=Mode.ROUTE_OPTIMIZATION,
                             scheme=scheme, ca=ca, pki_required=True)
    flooder = Flooder(sim, "flooder", Ipv6Address(0x20010DB8BEEF0000, 0xA))
    run_scheduled_prime_attack(sim, victim, AttackSchedule(4, (12,)), 1,
                               flooder, 20.0)
    outcomes: dict[str, list[str]] = {}

    def place_call(node: CallerNode, token: StartCall) -> None:
        node.place_call(token.target_fqdn,
                        lambda outcome: outcomes[node.fqdn].append(outcome.value))

    for i in range(10):
        fqdn = f"corr{i}.peers.example"
        keys = scheme.generate(sim.rng)
        node = CallerNode(sim, f"corr-{i}", fqdn,
                          Ipv6Address(CORRESPONDENT_PREFIX, i + 2), names,
                          scheme=scheme, keys=keys,
                          certificate=ca.issue(fqdn, keys.public), ca=ca,
                          require_signed_response=True)
        node.on_start_call = place_call
        outcomes[fqdn] = []
        for k, hour in enumerate((sim.rng.uniform(8.0, 20.0),
                                  sim.rng.uniform(12.0, 16.0))):
            sim.call_at(day_hour_us(0, hour), node.node_id,
                        StartCall(VICTIM_FQDN, 0, k, False))
    processed = sim.run()
    return {"processed": processed, "outcomes": outcomes,
            "engine": dataclasses.asdict(sim.counters),
            "home_agent": dataclasses.asdict(victim.ha.counters),
            "victim": dataclasses.asdict(victim.counters),
            "challenges": victim.responder.hip.challenges_issued}


def test_prime_attack_outcomes_and_counters_are_pinned():
    summary = prime_attack_summary(seed=5)
    blob = json.dumps(summary, sort_keys=True).encode()
    assert sha256(blob) == PRIME_ATTACK_DIGEST, summary
