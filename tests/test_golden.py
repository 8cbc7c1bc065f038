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
from dispo6.adversary import Flooder
from dispo6.caller import CallerNode
from dispo6.energy import (
    DEFAULT_PARAMS,
    Battery,
    EnergyAccount,
    drain_rate,
    flood_profile,
)
from dispo6.engine import EPOCH, SimTime, Simulator
from dispo6.home_agent import HomeAgent
from dispo6.mobile_host import MobileHost, Mode
from dispo6.scenario import RejectionMode, fig3_config

from conftest import HOME_PREFIX, PEER_PREFIX, VISITED_PREFIX

RUN_OUTPUTS = ("calls.csv", "daily_rejections.csv", "metrics.json")

FIG3_DIGESTS = {
    "4h": {
        "calls.csv":
            "eb62de8f98cd6f145d72452350f03ca0f88785e00455570d20033cefa451f889",
        "daily_rejections.csv":
            "fad6b5c58de36363a0a3845c1502ae8c929d4c2d13a2e89585f1068ff6e8f2ea",
        "metrics.json":
            "888af2749744aeeefc818285dedc3517f2ae6927feee8792f9f501b0c6c9375c",
    },
    "6h": {
        "calls.csv":
            "4eb1ba9c8837bea452b2af9cd1ed8262bb369845ab96368b0a9109326f1d0538",
        "daily_rejections.csv":
            "956c8edcdaf75ef9d9294ad07adbb3d1867bea7c440d17d2b267fd8ae1810c38",
        "metrics.json":
            "1bc7b9fa8c22fb83bf93658602f2187f7811e04e4b063ce71dc67eb5d16a27f5",
    },
}

# fig3 4h, seed 0, explicit mode: the call log and the daily series are
# the same as when the scenario decided rejections by window arithmetic;
# metrics.json now counts the prime's blocks and the dropped requests
EXPLICIT_4H_DIGESTS = {
    "calls.csv":
        "fb62dea07f0c4c2aaca85af5d278b49b695bf79750418713545dcd80629c128f",
    "daily_rejections.csv":
        "c519722c4f7f99c3cd066483e2418720413a94b2ce1a43ebabc83c899fb9c92a",
    "metrics.json":
        "72e02b5be8b00936995b2d2cdb968284992c3c8c874d5c1ed0e641478c8d041a",
}

FLOOD_DIGESTS = {
    # re-pinned when a non-spoofed flood became one rate segment: the
    # per-packet path still gives the old digest (3989800364c2...,
    # tests/test_segments.py runs both), and the segment gives every
    # counter of it, but the engine processed 9 events instead of 23975,
    # with 0 queued instead of 11 at 60 s, and the ledger charges a run
    # at a time, so consumed_packets and consumed_active differ in their
    # last bits (0.0010128019323671085 -> ...1494, 0.0012094202898551142
    # -> ...0734)
    "drain_tunnel":
        "7aba77921ca8792843d759922d4b8fd1ef85dabda11819adb591217893598713",
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
    # link-acked), with consumed_packets and remaining to match
    "detect_ro_spoofed":
        "8c147e77b4eb579af0e78ba5d2ae37e2deb78f617d5f57665769a33f95da30e4",
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
    digests = run_digests(fig3_config(variant, seed=0), tmp_path)
    assert digests == FIG3_DIGESTS[variant]


def test_fig3_explicit_outputs_are_pinned(tmp_path):
    config = dataclasses.replace(fig3_config("4h", seed=0),
                                 rejection_mode=RejectionMode.EXPLICIT_TIME)
    assert run_digests(config, tmp_path) == EXPLICIT_4H_DIGESTS
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    victim = metrics["counters"]["victim"]
    assert victim["prime_disposals"] == victim["reactivations"] == 1000
    assert (metrics["counters"]["home_agent"]["dropped_blocked"]
            == metrics["rejected_calls"] == 111)


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
    flood = flooder._flood_packets if per_packet else flooder.flood_between
    flood(SimTime.from_seconds(0.0037), SimTime.from_seconds(90), hoa, 100.0,
          56, spoof)
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
