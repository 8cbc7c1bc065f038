"""The abstract's claims, each run end to end through a public entry point.

Each test quotes its sentence of `PAPER.md` and names a mutant of the
program that it fails on.
"""

import re

import pytest

from dispo6 import cli, scenario
from dispo6.addressing import AddressState, Ipv6Address, NameService
from dispo6.caller import CallerNode, CallOutcome
from dispo6.energy import (
    DEFAULT_PARAMS,
    FLOOD_RATE_PPS,
    Battery,
    drain_rate,
    flood_profile,
    idle_profile,
    lifetime_under,
)
from dispo6.engine import US_PER_HOUR, Simulator
from dispo6.mobile_host import CORRESPONDENT_PREFIX, VICTIM_FQDN, attached_victim
from dispo6.scenario import ScenarioConfig, run_scenario


def small_world(seed: int, correspondents: int):
    """A victim in bidirectional-tunnelling mode with PKI off, on no
    battery, and `correspondents` plain callers."""
    sim = Simulator(seed)
    names = NameService()
    victim = attached_victim(sim, names, False)
    callers = [CallerNode(sim, f"corr-{i}", f"corr{i}.peers.example",
                          Ipv6Address(CORRESPONDENT_PREFIX, i + 2), names)
               for i in range(correspondents)]
    return sim, victim, callers


def read_series(path) -> list[tuple[float, float, str]]:
    rows = path.read_text().splitlines()[1:]
    return [(float(t), float(q), state)
            for t, q, state in (row.split(",") for row in rows)]


def test_battery_exhaustion_is_defeated(tmp_path, capsys):
    """"This model is especially useful against battery exhausting
    Denial-of-Service (DoS) attacks."

    Fails on a monitor that never alerts: the defended host then dies
    with the undefended one."""
    assert cli.main(["drain", "flood", "--out-dir", str(tmp_path)]) == 0
    alerts = re.search(r"battery_defended\.csv lifetime_hours=\S+ alerts=(\d+)",
                       capsys.readouterr().out)
    undefended = read_series(tmp_path / "battery.csv")
    defended = read_series(tmp_path / "battery_defended.csv")
    # undefended, the flood drains the battery at the calibrated rate
    flood_s = 3600.0 * lifetime_under(DEFAULT_PARAMS, Battery(),
                                      flood_profile(FLOOD_RATE_PPS))
    assert undefended[-1][2] == "dead"
    assert undefended[-1][0] == pytest.approx(flood_s, rel=2e-3)
    # defended, one alert disposes of the flooded address, the home agent
    # drops the rest of the flood, and the battery outlives the attack
    assert alerts is not None and int(alerts.group(1)) == 1
    assert defended[-1][2] == "dead"
    assert defended[-1][0] > 6 * undefended[-1][0]
    # from the first minute on the radio naps until the battery dies, at
    # the idle rate
    assert [state for _, _, state in defended[1:]] == (
        ["power_save"] * (len(defended) - 2) + ["dead"])
    (t0, q0, _), (t1, q1, _) = defended[1], defended[-2]
    assert (q0 - q1) / (t1 - t0) == pytest.approx(
        drain_rate(DEFAULT_PARAMS, idle_profile()), rel=1e-6)


def test_each_correspondent_holds_its_own_disposable(monkeypatch):
    """"Each correspondent is distributed a different disposable home
    address."

    Fails on a `grant_for` that gives every peer the first grant."""
    victims = []

    def kept_victim(*args, **options):
        victims.append(attached_victim(*args, **options))
        return victims[-1]

    monkeypatch.setattr(scenario, "attached_victim", kept_victim)
    run_scenario(ScenarioConfig(seed=2, horizon_days=20, correspondents=12,
                                daily_call_probability=0.25))
    [victim] = victims
    assert victim.ca is not None  # the handshake signs its grants
    held = {node.fqdn: node.book[VICTIM_FQDN].peer_address
            for node in victim.sim.nodes.values()
            if type(node) is CallerNode and VICTIM_FQDN in node.book
            and node.book[VICTIM_FQDN].peer_address is not None}
    assert len(held) >= 8
    # each holder holds what the victim granted it, and no two share one
    assert held == victim.responder.grants
    assert len(set(held.values())) == len(held)


def spam_outcomes(block_at_hour: int | None) -> dict[str, list[CallOutcome]]:
    """Each caller calls the victim once an hour for six hours; the
    victim SPIT-blocks the first caller at `block_at_hour`, if given."""
    sim, victim, callers = small_world(seed=5, correspondents=4)
    outcomes = {node.fqdn: [] for node in callers}
    for hour in range(6):
        if hour == block_at_hour:
            victim.spit_block(callers[0].fqdn)
        for node in callers:
            node.place_call(VICTIM_FQDN, outcomes[node.fqdn].append)
        sim.run_until((hour + 1) * US_PER_HOUR)
    return outcomes


def test_a_spit_block_stops_spam_and_no_one_else():
    """"We show however that this model can also be used to defeat other
    attacks and also to stop spam."

    Fails on a `spit_block` that does not deny the spammer's re-requests:
    the re-request is then granted a fresh disposable and connects."""
    plain, blocked = spam_outcomes(None), spam_outcomes(3)
    spammer = "corr0.peers.example"
    assert plain[spammer] == [CallOutcome.CONNECTED] * 6
    # the held disposable is blocked at the home agent: the next call
    # times out, and every re-request after it is refused
    assert blocked[spammer] == [CallOutcome.CONNECTED] * 3 + [
        CallOutcome.FAILED] + [CallOutcome.REJECTED_BY_CALLEE] * 2
    del plain[spammer], blocked[spammer]
    assert blocked == plain


def test_a_new_address_comes_out_of_band_or_by_handshake():
    """"A new home address can also be requested via e-mail, instant
    messaging, or directly from the target host using a protocol that we
    develop."

    Fails on a `grant_for` that hands back the held address without
    checking that it is still ACTIVE."""
    sim, victim, (by_mail, by_handshake) = small_world(seed=6, correspondents=2)

    def call(node):
        outcomes = []
        node.place_call(VICTIM_FQDN, outcomes.append)
        sim.run()
        return outcomes

    held = {}
    for node in (by_mail, by_handshake):
        assert call(node) == [CallOutcome.CONNECTED]
        held[node.fqdn] = node.book[VICTIM_FQDN].peer_address
        victim.dispose_address(held[node.fqdn])
    sim.run()
    # over a side channel
    by_mail.learn_address(VICTIM_FQDN, victim.grant_out_of_band(by_mail.fqdn))
    # from the target host: the failed call marks the address dead and the
    # next one runs the handshake first
    assert call(by_handshake) == [CallOutcome.FAILED]
    for node in (by_mail, by_handshake):
        assert call(node) == [CallOutcome.CONNECTED]
        fresh = node.book[VICTIM_FQDN].peer_address
        assert fresh != held[node.fqdn]
        assert victim.address_states[fresh] is AddressState.ACTIVE
        assert victim.ha.state_of(fresh) is AddressState.ACTIVE
