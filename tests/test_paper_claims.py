"""The abstract's claims, each run end to end through a public entry point.

Each test quotes its sentence of `PAPER.md` and names a mutant of the
program that it fails on.
"""

import re

import pytest

from dispo6 import cli, scenario
from dispo6.caller import CallerNode
from dispo6.energy import (
    DEFAULT_PARAMS,
    FLOOD_RATE_PPS,
    Battery,
    drain_rate,
    flood_profile,
    idle_profile,
    lifetime_under,
)
from dispo6.mobile_host import VICTIM_FQDN, attached_victim
from dispo6.scenario import ScenarioConfig, run_scenario


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
