"""A flood segment against the per-packet path it replaces.

`Flooder.flood_between` hands a non-spoofed flood to the engine as one
segment; `Flooder._flood_packets` is the per-packet path, a timer per
packet, kept as the reference. Each case runs the same world twice, once
each way, and compares every counter exactly at every checkpoint: the
queued events, engine, home agent, host, flooder, and the ledger's integer
fields. The ledger's
float sums are charged a run at a time instead of a packet at a time, so
they may differ in their last bits, within LEDGER_REL_TOL. The cases that
move, block or redirect a host change what the step caches of engine.py
read; one more test counts what a segment step rebuilds.
"""

import collections
import copy
import dataclasses

import pytest

from dispo6 import home_agent, mobile_host
from dispo6.addressing import Ipv6Address
from dispo6.adversary import Flooder, _interval_us
from dispo6.energy import (
    DEFAULT_PARAMS,
    LEDGER_REL_TOL,
    Battery,
    EnergyAccount,
    EnergyParams,
    drain_rate,
    flood_profile,
)
from dispo6.engine import EPOCH, US_PER_SECOND, Packet, SimTime, Simulator
from dispo6.home_agent import ReverseTunneled
from dispo6.messages import PeerBindingUpdate, Ping, Pong
from dispo6.mobile_host import Mode

import test_golden
from conftest import ATTACKER_PREFIX
from test_mobile_host import make_caller, make_host

# subnets a host moves to
MOVED_PREFIXES = (0x20010DB802220000, 0x20010DB803330000)

LEDGER_INTS = ("active_us", "powersave_us", "packets", "dead")
LEDGER_FLOATS = ("consumed_packets", "consumed_active", "consumed_powersave",
                 "recharged")


def flood(flooder, per_packet, start_s, stop_s, target, rate):
    start, stop = SimTime.from_seconds(start_s), SimTime.from_seconds(stop_s)
    if per_packet:
        flooder._flood_packets(start, stop, target, _interval_us(rate), False)
    else:
        flooder.flood_between(start, stop, target, rate)


def summary(world, host, flooder):
    counters = {"pending": world.sim.pending(),
                "engine": dataclasses.asdict(world.sim.counters),
                "home_agent": dataclasses.asdict(world.agent.counters),
                "host": dataclasses.asdict(host.counters),
                "flooder": dataclasses.asdict(flooder.stats)}
    account = host.energy
    account.advance(world.sim.now)
    counters["ledger"] = {name: getattr(account, name) for name in LEDGER_INTS}
    counters["ledger"]["dead_at_us"] = (account.dead_at.micros
                                        if account.dead_at else None)
    return counters


def assert_same(segment, packet, ledgers):
    assert segment == packet
    seg_ledger, packet_ledger = ledgers
    budget = seg_ledger.battery.capacity + seg_ledger.recharged
    for name in LEDGER_FLOATS + ("remaining",):
        assert getattr(seg_ledger, name) == pytest.approx(
            getattr(packet_ledger, name), abs=LEDGER_REL_TOL * budget), name


class Twin:
    """One world per path, stepped in lock-step."""

    def __init__(self, make_world, *, mode=Mode.BIDIRECTIONAL_TUNNELING,
                 latency_s=0.05, threshold=1e9, battery=Battery()):
        self.sides = []
        for per_packet in (False, True):
            world = make_world(latency_s=latency_s)
            account = EnergyAccount(battery, DEFAULT_PARAMS, 10.0, EPOCH)
            host = make_host(world, mode=mode, energy=account,
                             detection_threshold_pps=threshold)
            caller = make_caller(world)
            hoa = host.grant_out_of_band(caller.fqdn)
            flooder = Flooder(world.sim, "flooder",
                              Ipv6Address(ATTACKER_PREFIX, 0xA))
            self.sides.append((per_packet, world, host, caller, hoa, flooder))

    def each(self, action):
        for per_packet, world, host, caller, hoa, flooder in self.sides:
            action(per_packet, world, host, caller, hoa, flooder)

    def flood(self, start_s, stop_s, rate, on_prime=False):
        self.each(lambda per_packet, world, host, caller, hoa, flooder: flood(
            flooder, per_packet, start_s, stop_s,
            host.prime if on_prime else hoa, rate))

    def check(self, until_s=None):
        """Run both sides to `until_s` (or drain them) and compare."""
        results = []
        for _, world, host, _, _, flooder in self.sides:
            if until_s is None:
                world.sim.run()
            else:
                world.sim.run_until(SimTime.from_seconds(until_s))
            results.append(summary(world, host, flooder))
        assert_same(*results, [side[2].energy for side in self.sides])
        assert self.sides[0][1].sim.now == self.sides[1][1].sim.now
        return results[0]


class TestFloodEnergyCases:
    """The four floods of test_adversary.TestFloodEnergy."""

    def test_active_address(self, make_world):
        twin = Twin(make_world)
        twin.flood(0.0, 600.0, 100)
        for t in (0.0, 0.05, 0.1, 0.15, 123.456789, 300.0):
            twin.check(t)
        assert twin.check()["host"]["pings"] == 60_000

    def test_blocked_address(self, make_world):
        twin = Twin(make_world)
        twin.each(lambda _, world, host, caller, hoa, flooder:
                  host.dispose_address(hoa))
        twin.check()
        twin.flood(1.0, 601.0, 100)
        twin.check(300.0)
        assert twin.check()["home_agent"]["dropped_blocked"] == 60_000

    @pytest.mark.parametrize("rate", [1 / 10, 1 / 20])
    def test_sleep_deprivation_and_half_rate(self, make_world, rate):
        twin = Twin(make_world)
        twin.flood(0.0, 2000.0, rate)
        twin.check(1000.0)
        twin.check()


def test_golden_drain_tunnel():
    """The golden flood that empties its battery: only the event count
    and the ledger's last bits may differ."""
    case = test_golden.FLOOD_CASES["drain_tunnel"]
    segment = test_golden.flood_summary(seed=3, **case)
    packet = test_golden.flood_summary(seed=3, per_packet=True, **case)
    assert segment["ledger"]["dead"]
    for key in ("pending", "engine", "home_agent", "victim", "flooder"):
        assert segment[key] == packet[key]
    for name, value in packet["ledger"].items():
        assert segment["ledger"][name] == pytest.approx(value, rel=LEDGER_REL_TOL)
    assert segment["processed"] < packet["processed"] / 1000


@pytest.mark.parametrize("mode", list(Mode))
def test_detection_cycle_on_the_prime(make_world, mode):
    """Alert, block, reactivation after 60 s, alert again, with calls and
    address requests reaching the monitor between the flood's packets; the
    latency is no multiple of the flood's interval."""
    twin = Twin(make_world, mode=mode, latency_s=0.037, threshold=10.0)
    twin.flood(1.0, 200.0, 100, on_prime=True)
    outcomes = [[], []]

    def call(per_packet, world, host, caller, hoa, flooder):
        caller.place_call(host.fqdn, outcomes[per_packet].append)
        caller.learn_address(host.fqdn, None)

    for t in (0.5, 1.2, 1.9, 2.03, 2.2, 61.0, 62.05, 62.3, 63.1, 70.0, 125.0):
        twin.check(t)
        twin.each(call)
    counters = twin.check()
    assert outcomes[0] == outcomes[1]
    assert counters["host"]["alerts"] >= 3
    assert counters["host"]["reactivations"] >= 3
    assert counters["home_agent"]["dropped_blocked"] > 0


@pytest.mark.parametrize("mode,latency_s,rate", [
    (Mode.BIDIRECTIONAL_TUNNELING, 0.05, 10),
    (Mode.ROUTE_OPTIMIZATION, 0.05, 10),
    (Mode.ROUTE_OPTIMIZATION, 0.05, 20),
    (Mode.ROUTE_OPTIMIZATION, 0.025, 40),
    (Mode.BIDIRECTIONAL_TUNNELING, 0.1, 20),
])
def test_same_instant_ties(make_world, mode, latency_s, rate):
    """Latencies that are whole multiples of the flood's interval, or twice
    the interval long: management messages and flood packets meet on the
    same microsecond, and the segment must order them as the per-packet
    path does (see the tie rule in engine.py)."""
    twin = Twin(make_world, mode=mode, latency_s=latency_s, threshold=10.0)
    twin.flood(1.0, 150.0, rate, on_prime=True)
    for t in (3.0, 7.77, 61.0, 66.6):
        twin.check(t)
    assert twin.check()["host"]["alerts"] >= 2


@pytest.mark.parametrize("mode,latency_s,rate", [
    (Mode.ROUTE_OPTIMIZATION, 0.05, 50),
    (Mode.BIDIRECTIONAL_TUNNELING, 0.025, 5),
])
def test_idle_death_on_a_whole_microsecond(make_world, mode, latency_s, rate):
    """A 40 s battery that outlives the flood and dies idle, at an instant
    its last budget covers to a whole microsecond but for rounding: the
    ledger's sums differ in their last bits, the death instant must not."""
    battery = Battery(capacity=40.0 * drain_rate(DEFAULT_PARAMS, flood_profile(100.0)))
    twin = Twin(make_world, mode=mode, latency_s=latency_s,
                threshold=10.0 if rate >= 10 else 4.0, battery=battery)
    twin.flood(1.0, 150.0, rate, on_prime=True)
    assert twin.check()["ledger"]["dead"]


def test_route_optimized_disposable(make_world):
    """An RO host answers the first packet tunneled to a disposable with a
    binding update, then the alert rotates its care-of address."""
    twin = Twin(make_world, mode=Mode.ROUTE_OPTIMIZATION, latency_s=0.037,
                threshold=10.0)
    twin.flood(0.01, 30.0, 20)
    for t in (0.05, 0.085, 0.1, 3.0, 5.5, 6.0):
        twin.check(t)
    counters = twin.check()
    assert counters["host"]["peer_binding_updates"] >= 1
    assert counters["host"]["stale_dropped"] + counters["engine"]["unroutable"] > 0


@pytest.mark.parametrize("mode", list(Mode))
def test_moves_during_a_flood_on_a_disposable(make_world, mode):
    """The host changes subnet twice under a flood on an active
    disposable: the packets in flight to the old care-of address are
    stale, the home agent tunnels to the new one once the binding update
    arrives, and the host's pong leaves from the new one. The moves fall
    between the flood's packets: a binding update sent between two steps
    at the instant of one would meet it by the tie rule of engine.py."""
    twin = Twin(make_world, mode=mode)
    twin.flood(0.0, 60.0, 100)
    for t, prefix in zip((10.005, 10.023), MOVED_PREFIXES):
        twin.check(t)
        twin.each(lambda _, world, host, caller, hoa, flooder:
                  host.move_to_subnet(prefix))
    for t in (10.03, 10.06, 10.075, 10.1, 10.2, 30.0):
        twin.check(t)
    counters = twin.check()
    assert counters["host"]["binding_updates"] == 2
    assert counters["host"]["stale_dropped"] > 0
    assert counters["flooder"]["replies_received"] > 0


@pytest.mark.parametrize("mode", list(Mode))
def test_block_and_reactivate_the_flooded_disposable(make_world, mode):
    """The flooded disposable is blocked, so the home agent drops the
    flood and the host charges no pong, then reactivated, so both resume."""
    twin = Twin(make_world, mode=mode)
    twin.flood(0.0, 60.0, 100)
    twin.check(5.005)
    twin.each(lambda _, world, host, caller, hoa, flooder:
              host.dispose_address(hoa, auto_reactivate=False))
    for t in (5.04, 5.1, 20.007):
        twin.check(t)
    twin.each(lambda _, world, host, caller, hoa, flooder:
              host.reactivate_address(hoa))
    for t in (20.07, 20.2, 40.0):
        twin.check(t)
    counters = twin.check()
    assert counters["home_agent"]["dropped_blocked"] > 0
    assert counters["host"]["reactivations"] == 1
    assert counters["flooder"]["replies_received"] > 4000


@pytest.mark.parametrize("mode", list(Mode))
def test_a_second_flood_off_the_first_floods_grid(make_world, mode):
    """Two flooders on two disposables of one host, at 7 and 11 pkt/s, the
    second from 13 ms after the first: the first flood's run at the host
    ends at the second's next packet, which falls between two of its own
    (the planner of engine.py steps to the other run's start)."""
    twin = Twin(make_world, mode=mode)
    twin.flood(1.0, 60.0, 7)
    second = []

    def flood_another_disposable(per_packet, world, host, caller, hoa, flooder):
        hoa = host.grant_out_of_band(make_caller(world, 1).fqdn)
        other = Flooder(world.sim, "flooder-2", Ipv6Address(ATTACKER_PREFIX, 0xC))
        flood(other, per_packet, 1.013, 60.0, hoa, 11)
        second.append(other)

    twin.each(flood_another_disposable)
    for t in (1.2, 1.5013, 30.0):
        twin.check(t)
    counters = twin.check()
    assert second[0].stats == second[1].stats
    assert (counters["host"]["pings"]
            == counters["flooder"]["sent"] + second[0].stats.sent)
    assert second[0].stats.replies_received >= second[0].stats.sent


def bind_the_flooder(world, host, hoa, flooder, care_of):
    """The flooder sends `host` a binding update for its own address, which
    the host holds: a host rebinds only a home address in its book."""
    host.learn_address("flooder.example", flooder.address)
    world.sim.send(Packet(flooder.address, hoa, PeerBindingUpdate(
        home_address=flooder.address, care_of=care_of)))


def test_a_binding_update_for_the_flood_source(make_world):
    """A binding update naming the flood's source address moves where the
    host's pongs go: to the care-of address it names, here one nobody
    routes."""
    twin = Twin(make_world)
    twin.flood(0.0, 30.0, 100)
    twin.check(5.005)
    nowhere = Ipv6Address(ATTACKER_PREFIX, 0xB)
    twin.each(lambda _, world, host, caller, hoa, flooder: bind_the_flooder(
        world, host, hoa, flooder, nowhere))
    for t in (5.06, 5.1, 10.0):
        twin.check(t)
    counters = twin.check()
    assert 400 < counters["flooder"]["replies_received"] < 600
    assert counters["engine"]["unroutable"] > 2000


@pytest.mark.parametrize("mode", list(Mode))
def test_a_binding_update_that_points_the_pongs_at_a_caller(make_world, mode):
    """The flood's source names a caller as its care-of address, so the
    host's pongs go to a node with no closed form for a run: they leave
    the segment there and reach it one packet at a time."""
    twin = Twin(make_world, mode=mode)
    twin.flood(0.0, 30.0, 100)
    twin.check(5.005)
    twin.each(lambda _, world, host, caller, hoa, flooder: bind_the_flooder(
        world, host, hoa, flooder, caller.address))
    for t in (5.06, 5.1, 10.0):
        twin.check(t)
    counters = twin.check()
    assert 400 < counters["flooder"]["replies_received"] < 600
    assert counters["engine"]["unroutable"] == 0


def test_accounts_with_different_sleep_timeouts(make_world):
    """Two victims share DEFAULT_PARAMS and a flood's interval, but one
    radio naps after 4 ms, inside each 10 ms gap, and one stays active."""
    results = []
    for per_packet in (False, True):
        world = make_world()
        flooder = Flooder(world.sim, "flooder", Ipv6Address(ATTACKER_PREFIX, 0xA))
        caller = make_caller(world)
        side = []
        for i, sleep_timeout_s in enumerate((10.0, 0.004)):
            account = EnergyAccount(Battery(), DEFAULT_PARAMS, sleep_timeout_s,
                                    EPOCH)
            host = make_host(world, node_id=f"host-{i}",
                             fqdn=f"host{i}.home.example", energy=account,
                             detection_threshold_pps=1e9)
            flood(flooder, per_packet, 0.5, 30.0,
                  host.grant_out_of_band(caller.fqdn), 100)
            side.append(host)
        world.sim.run_until(SimTime.from_seconds(20.0))
        results.append([summary(world, host, flooder) for host in side]
                       + [host.energy for host in side])
    segment, packet = results
    for i in range(2):
        assert_same(segment[i], packet[i], (segment[2 + i], packet[2 + i]))
    active, napping = segment[2:]
    assert active.powersave_us == 0 < napping.powersave_us


def test_segment_steps_rebuild_only_on_state_changes(make_world, monkeypatch):
    """A segment stepped 1 s at a time: the tunnel packet, the pong and
    the per-packet costs are built again when hop state changes, not on
    every step."""
    built = collections.Counter()

    def counted(name, make):
        def build(*args, **kwargs):
            built[name] += 1
            return make(*args, **kwargs)
        return build

    def tuple_new(cls, fields):
        if cls is home_agent.Encapsulated:
            built["Encapsulated"] += 1
        return tuple.__new__(cls, fields)

    # the agent builds its tunnel records through `_tuple_new`
    monkeypatch.setattr(home_agent, "_tuple_new", tuple_new)
    monkeypatch.setattr(mobile_host, "Pong", counted("Pong", mobile_host.Pong))
    monkeypatch.setattr(EnergyParams, "packet_cost",
                        counted("packet_cost", EnergyParams.packet_cost))
    # the segment side of a twin, stepped alone
    _, world, host, _, hoa, flooder = Twin(make_world).sides[0]
    flood(flooder, False, 0.5, 600.0, hoa, 100)

    def steps(n):
        for _ in range(n):
            world.sim.run_until(world.sim.now_us + US_PER_SECOND)
        return dict(built)

    settled = steps(3)
    assert settled["Encapsulated"] == settled["Pong"] == 1
    assert steps(20) == settled
    host.move_to_subnet(MOVED_PREFIXES[0])
    moved = steps(3)
    assert moved["Encapsulated"] == moved["Pong"] == 2
    assert steps(20) == moved


def hop_state(world, host, flooder):
    """Every counter, monitor window and ledger field a run can move."""
    return {"engine": dataclasses.asdict(world.sim.counters),
            "home_agent": dataclasses.asdict(world.agent.counters),
            "host": dataclasses.asdict(host.counters),
            "flooder": dataclasses.asdict(flooder.stats),
            "windows": {hoa: (list(window), window.total)
                        for hoa, window in host.monitor._windows.items()},
            "ledger": {name: copy.copy(getattr(host.energy, name))
                       for name in EnergyAccount.__slots__}}


# (hop, what it is handed, the state the host is put in first, whether
# the hop forwards it)
HOP_CASES = [
    ("flooder", "emit", None, True), ("agent", "emit", None, True),
    ("agent", "emit", "blocked", False), ("agent", "reverse", None, True),
    ("agent", "forged", None, False), ("host", "tunneled", None, True),
    ("host", "tunneled", "blocked", False),
    ("host", "tunneled", "stale", False), ("host", "tunneled", "dead", False),
    ("flooder", "pong", None, False),
]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("hop,handed,state,forwards", HOP_CASES)
def test_a_run_of_no_packets_changes_nothing(make_world, mode, hop, handed,
                                             state, forwards):
    """`on_run(packet, t, i, 0)` returns what each packet of a run of one
    is forwarded as, and moves no counter, monitor window or ledger field:
    a segment step's plan asks it so. The flood is on the host's prime, so
    blocking it keeps the care-of address in RO mode too."""
    world = make_world()
    battery = Battery(capacity=1e-6) if state == "dead" else Battery()
    host = make_host(world, mode=mode, detection_threshold_pps=1e9,
                     energy=EnergyAccount(battery, DEFAULT_PARAMS, 10.0, EPOCH))
    flooder = Flooder(world.sim, "flooder", Ipv6Address(ATTACKER_PREFIX, 0xA))
    agent, t, interval = world.agent, 10 * US_PER_SECOND, 10_000
    emit = Packet(flooder.address, host.prime, Ping())
    pong = Packet(host.prime, flooder.address, Pong())
    packets = {"emit": emit, "pong": pong,
               "tunneled": agent.on_run(emit, t, interval, 1)}
    for name, tag in (("reverse", host.sa_tag), ("forged", "forged")):
        packets[name] = Packet(host.coa, agent.admin_address,
                               ReverseTunneled(pong, host.node_id, tag))
    # the host has taken a run: its monitor window and ledger are not empty
    assert host.on_run(packets["tunneled"], t, interval, 1) is not None
    if state == "blocked":
        host.dispose_address(host.prime, auto_reactivate=False)
    elif state == "stale":
        host.move_to_subnet(MOVED_PREFIXES[0])
    # the agent applies the block or binding update
    world.sim.run_until(t)
    if state == "dead":
        host.energy.advance(t + US_PER_SECOND)
        assert host.energy.dead
    node = {"flooder": flooder, "agent": agent, "host": host}[hop]
    packet, t = packets[handed], t + US_PER_SECOND
    before = hop_state(world, host, flooder)
    forwarded = node.on_run(packet, t, interval, 0)
    assert hop_state(world, host, flooder) == before
    assert forwarded == node.on_run(packet, t, interval, 1)
    assert (forwarded is not None) is forwards


def test_segment_steps_call_each_hop_once(make_world, monkeypatch):
    """A steady 1 s step of the flood hands each of its five hops (flooder,
    home agent, host, home agent, flooder) one run and asks the host once
    for its split. The plan asks each of the five pieces (the emission and
    four in flight) what it is forwarded as, through a run of no packets:
    one hop on, each reaches where the walk of the piece a leg farther
    began, and goes that way."""
    calls = collections.Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def call(*args):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(cls, name, call)

    for cls in (Flooder, home_agent.HomeAgent, mobile_host.MobileHost):
        for name in ("on_run", "run_split"):
            if name in vars(cls):
                counted(cls, name)
    _, world, _, _, hoa, flooder = Twin(make_world).sides[0]
    flood(flooder, False, 0.5, 600.0, hoa, 100)
    for _ in range(3):
        world.sim.run_until(world.sim.now_us + US_PER_SECOND)
    calls.clear()
    for _ in range(20):
        world.sim.run_until(world.sim.now_us + US_PER_SECOND)
    assert calls == {"on_run": 2 * 5 * 20, "run_split": 20}


@pytest.mark.parametrize("target,per_packet", [
    ("agent", False),
    ("caller", True),  # a `CallerNode` has no closed form (no `on_run`)
])
def test_which_floods_become_segments(make_world, target, per_packet):
    world = make_world()
    address = (world.agent.admin_address if target == "agent"
               else make_caller(world).address)
    flooder = Flooder(world.sim, "flooder", Ipv6Address(ATTACKER_PREFIX, 0xA))
    # a flood of no packets gets the engine's answer and queues nothing
    probe = Packet(flooder.address, address, Ping())
    assert world.sim.flood(flooder.node_id, probe, EPOCH, US_PER_SECOND,
                           0) is not per_packet
    flooder.flood_between(EPOCH, SimTime.from_seconds(1), address, 100)
    assert world.sim.pending() == 1  # the emission timer, either way
    # a segment's packets are no events; the per-packet path has a timer each
    assert (world.sim.run() >= 100) == per_packet
    assert flooder.stats.sent == 100


@pytest.mark.parametrize("latency_s", [0.0, 4e-7])  # 4e-7 s rounds to 0 us
def test_a_latency_under_a_microsecond_is_refused(latency_s):
    with pytest.raises(ValueError, match="under 1 us"):
        Simulator(latency_s=latency_s)
