"""The abstract's claims, each run end to end through a public entry point.

Each test quotes its sentence of `PAPER.md` and names a mutant of the
program that it fails on.
"""

import math
import re

import pytest

from dispo6 import cli, scenario
from dispo6.addressing import AddressState, Ipv6Address, NameService
from dispo6.adversary import Flooder
from dispo6.caller import CallerNode, CallOutcome
from dispo6.crypto import CertificateAuthority, Ed25519Scheme
from dispo6.energy import (
    DEFAULT_PARAMS,
    FLOOD_RATE_PPS,
    Battery,
    LoadProfile,
    drain_rate,
    flood_profile,
    lifetime_under,
)
from dispo6.engine import US_PER_HOUR, US_PER_SECOND, Simulator
from dispo6.home_agent import HomeAgent
from dispo6.mobile_host import (
    CORRESPONDENT_PREFIX,
    HOME_PREFIX,
    PRIME_REACTIVATE_AFTER_US,
    VICTIM_FQDN,
    VISITED_PREFIX,
    MobileHost,
    Mode,
    attached_victim,
)
from dispo6.monitor import DETECTION_THRESHOLD_PPS, DETECTION_WINDOW_S
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
        drain_rate(DEFAULT_PARAMS, LoadProfile()), rel=1e-6)


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


def hourly_outcomes(attack=None):
    """Each caller calls the victim once an hour for six hours; at hour 3,
    before the calls, `attack(sim, victim, fqdn)` targets the first caller,
    if given. The victim, and what each caller saw."""
    sim, victim, callers = small_world(seed=5, correspondents=4)
    outcomes = {node.fqdn: [] for node in callers}
    for hour in range(6):
        if hour == 3 and attack is not None:
            attack(sim, victim, callers[0].fqdn)
        for node in callers:
            node.place_call(VICTIM_FQDN, outcomes[node.fqdn].append)
        sim.run_until((hour + 1) * US_PER_HOUR)
    return victim, outcomes


def spit_block(sim, victim, fqdn):
    victim.spit_block(fqdn)


def test_a_spit_block_stops_spam_and_no_one_else():
    """"We show however that this model can also be used to defeat other
    attacks and also to stop spam."

    Fails on a `spit_block` that does not deny the spammer's re-requests:
    the re-request is then granted a fresh disposable and connects."""
    (_, plain), (_, blocked) = hourly_outcomes(), hourly_outcomes(spit_block)
    spammer = "corr0.peers.example"
    assert plain[spammer] == [CallOutcome.CONNECTED] * 6
    # the held disposable is blocked at the home agent: the next call
    # times out, and every re-request after it is refused
    assert blocked[spammer] == [CallOutcome.CONNECTED] * 3 + [
        CallOutcome.FAILED] + [CallOutcome.REJECTED_BY_CALLEE] * 2
    del plain[spammer], blocked[spammer]
    assert blocked == plain


def flood_the_disposable(sim, victim, fqdn):
    """100 pkt/s for 60 s at the disposable `fqdn` holds, from one source:
    a flood segment, which draws nothing from `sim.rng`."""
    flooder = Flooder(sim, "flooder", Ipv6Address(CORRESPONDENT_PREFIX, 1))
    flooder.flood_between(sim.now_us, sim.now_us + 60 * US_PER_SECOND,
                          victim.responder.grants[fqdn], 100.0)


def test_blocking_one_address_leaves_the_others_reachable():
    """"Blocking one address does not affect other addresses. Other
    correspondents can still reach the mobile host."

    Fails on a `dispose_address` that blocks every ACTIVE address: the
    other callers' next calls then fail too."""
    _, plain = hourly_outcomes()
    victim, flooded = hourly_outcomes(flood_the_disposable)
    assert victim.counters.alerts == 1
    target = "corr0.peers.example"
    # the call in flight connects; the next one finds the disposable
    # blocked, and its re-request is granted a fresh one
    assert flooded[target] == [CallOutcome.CONNECTED] * 4 + [
        CallOutcome.FAILED, CallOutcome.CONNECTED]
    del plain[target], flooded[target]
    assert flooded == plain
    assert all(outcomes == [CallOutcome.CONNECTED] * 6
               for outcomes in flooded.values())


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


@pytest.mark.parametrize("mode", list(Mode))
def test_a_side_channel_connects_hosts_whose_primes_are_blocked(mode):
    """"A new home address can also be requested via e-mail, instant
    messaging, or directly from the target host ..."

    Two mobile hosts whose primes are both blocked pair in person
    (`pair_with`), a side channel that needs no prime: they then call
    each other both ways, and neither runs the handshake.

    Fails on a `pair_with` that has each host learn the other's prime:
    every call then lands on a blocked prime."""
    sim = Simulator(9)
    names = NameService()
    scheme = Ed25519Scheme()
    ca = CertificateAuthority(scheme, sim.rng)
    agent = HomeAgent(sim, "home-agent", HOME_PREFIX)
    handled = []
    a, b = hosts = [MobileHost(sim, name, f"{name}.home.example", names,
                               mode=mode, scheme=scheme, ca=ca,
                               pki_required=True)
                    for name in ("alice", "bob")]
    for host in hosts:
        host.attach(agent, VISITED_PREFIX)
        host.responder.handle_request = handled.append
        host.dispose_address(host.prime, auto_reactivate=False)
    sim.run()
    assert all(agent.state_of(host.prime) is AddressState.BLOCKED
               for host in hosts)
    assert a.pair_with(b).confirmed
    outcomes = []
    a.place_call(b.fqdn, outcomes.append)
    b.place_call(a.fqdn, outcomes.append)
    sim.run()
    assert outcomes == [CallOutcome.CONNECTED] * 2
    assert handled == []


ATTACK_S = 70


def certified_caller(sim, names, scheme, ca, i):
    fqdn = f"node{i}.peers.example"
    keys = scheme.generate(sim.rng)
    return CallerNode(sim, f"node-{i}", fqdn,
                      Ipv6Address(CORRESPONDENT_PREFIX, i + 2), names,
                      scheme=scheme, keys=keys,
                      certificate=ca.issue(fqdn, keys.public), ca=ca,
                      require_signed_response=True)


@pytest.mark.parametrize("bots", [20, 200])
def test_a_request_flood_on_the_prime_costs_a_bounded_cpu(bots):
    """"This model is especially useful against ... CPU exhausting
    distributed DoS attacks."

    `bots` certified bots that solve every challenge each send the prime
    one address request a second for 70 s. The responder, which checks a
    signature on each request, runs a detection window's worth of them
    per reopening of the prime, however many bots there are; and a
    disposable's holder still connects.

    Fails on a `_handle_inner` that does not observe the prime's traffic:
    the responder then runs once per request, 70 times per bot."""
    sim = Simulator(8)
    names = NameService()
    scheme = Ed25519Scheme()
    ca = CertificateAuthority(scheme, sim.rng)
    victim = attached_victim(sim, names, False, scheme=scheme, ca=ca,
                             pki_required=True)
    handled = []
    handle_request = victim.responder.handle_request
    victim.responder.handle_request = lambda request, now_us: (
        handled.append(now_us) or handle_request(request, now_us))
    holder = certified_caller(sim, names, scheme, ca, 0)
    holder.learn_address(VICTIM_FQDN, victim.grant_out_of_band(holder.fqdn))
    farm = [certified_caller(sim, names, scheme, ca, i + 1)
            for i in range(bots)]
    outcomes = []
    for second in range(ATTACK_S):
        sim.run_until(second * US_PER_SECOND)
        for bot in farm:
            bot.request_address(VICTIM_FQDN, lambda result: None)
        if second == ATTACK_S // 2:
            holder.place_call(VICTIM_FQDN, outcomes.append)
    sim.run()
    cycles = math.ceil(ATTACK_S * US_PER_SECOND / PRIME_REACTIVATE_AFTER_US)
    per_cycle = DETECTION_THRESHOLD_PPS * DETECTION_WINDOW_S + 1
    assert len(handled) <= cycles * per_cycle + 4
    assert victim.counters.prime_disposals == cycles
    assert outcomes == [CallOutcome.CONNECTED]
