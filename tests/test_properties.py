"""Property tests for the event engine, the address type and the
scenario configuration's file round trip."""

import dataclasses
import ipaddress

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispo6.addressing import IID_MASK, Ipv6Address
from dispo6.engine import Node, PastEventError, SimTime, Simulator
from dispo6.mobile_host import Mode
from dispo6.scenario import RejectionMode, ScenarioConfig

HORIZON_US = 10 * 1_000_000


class Log(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.seen = []

    def on_timer(self, token):
        self.seen.append((self.sim.now_us, token))

    def on_packet(self, packet):
        self.seen.append((self.sim.now_us, packet))


times = st.lists(st.integers(0, HORIZON_US), max_size=60)


@given(times)
def test_events_fire_in_time_then_scheduling_order(fire_us):
    sim = Simulator(0)
    log = Log(sim, "n")
    for index, us in enumerate(fire_us):
        sim.call_at(SimTime(us), "n", index)
    assert sim.run() == len(fire_us)
    expected = sorted((us, index) for index, us in enumerate(fire_us))
    assert log.seen == expected


@given(times, st.integers(0, HORIZON_US))
def test_mixed_entry_points_keep_the_order(fire_us, first_us):
    # call_in and call_at at one instant are ordered by scheduling, too
    sim = Simulator(0)
    log = Log(sim, "n")
    sim.call_at(SimTime(first_us), "n", "advance")
    sim.run()
    for index, us in enumerate(fire_us):
        if index % 2:
            sim.call_in(us / 1e6, "n", index)
        else:
            sim.call_at(SimTime(first_us + us), "n", index)
    sim.run()
    fired = log.seen[1:]
    assert fired == sorted(fired, key=lambda item: (item[0], item[1]))
    assert [us - first_us for us, _ in fired] == sorted(fire_us)


@given(st.integers(0, HORIZON_US), st.integers(1, HORIZON_US))
@example(0, 1)
@example(5, 5)
def test_past_instants_and_negative_delays_rejected(now_us, back_us):
    sim = Simulator(0)
    Log(sim, "n")
    sim.run_until(SimTime(now_us))
    assert sim.now_us == now_us
    if back_us <= now_us:
        past = SimTime(now_us - back_us)
        with pytest.raises(PastEventError):
            sim.schedule_at(past, "n", "late")
        with pytest.raises(PastEventError):
            sim.call_at(past, "n", "late")
    for delay_s in (-back_us / 1e6, -1e-9):
        with pytest.raises(PastEventError):
            sim.call_in(delay_s, "n", "late")
    assert sim.pending() == 0


@given(times, st.integers(0, 2 * HORIZON_US))
def test_run_until_counts_events_and_lands_on_t_end(fire_us, end_us):
    sim = Simulator(0)
    log = Log(sim, "n")
    for index, us in enumerate(fire_us):
        sim.call_at(SimTime(us), "n", index)
    processed = sim.run_until(SimTime(end_us))
    due = sum(1 for us in fire_us if us <= end_us)
    assert processed == due == len(log.seen)
    assert sim.now == SimTime(end_us)
    assert sim.pending() == len(fire_us) - due


words = st.integers(0, IID_MASK)


@given(words, words)
def test_address_text_round_trip(prefix, iid):
    address = Ipv6Address(prefix, iid)
    assert int(ipaddress.IPv6Address(str(address))) == address
    assert (address.prefix, address.iid) == (prefix, iid)


@settings(max_examples=200)
@given(words, words, words, words)
def test_address_order_and_hash_follow_value(p1, i1, p2, i2):
    a, b = Ipv6Address(p1, i1), Ipv6Address(p2, i2)
    assert (a < b) == (int(a) < int(b))
    assert (a == b) == (int(a) == int(b))
    assert (a < b) == ((p1, i1) < (p2, i2))
    if a == b:
        assert hash(a) == hash(b)
    twin = Ipv6Address(p1, i1)
    assert twin == a and hash(twin) == hash(a)
    assert {a: 1}[twin] == 1


# one strategy per field, each drawing only values validate() accepts
CONFIG_FIELDS = {
    "seed": st.integers(0, 2**63),
    "horizon_days": st.integers(0, 10_000),
    "correspondents": st.integers(0, 10_000),
    "daily_call_probability": st.floats(0.0, 1.0),  # bounded: no nan, no inf
    "attack_hours": st.sampled_from([None, 4, 6]),
    "rejection_mode": st.sampled_from(RejectionMode),
    "mobility_mode": st.sampled_from(Mode),
    "pki_enabled": st.booleans(),
    "energy_enabled": st.booleans(),
    "oob_retry_delay_days": st.none() | st.integers(1, 10_000),
}


def test_config_strategy_covers_every_field():
    assert set(CONFIG_FIELDS) == {f.name
                                  for f in dataclasses.fields(ScenarioConfig)}


@given(st.builds(ScenarioConfig, **CONFIG_FIELDS))
def test_config_mapping_round_trip(config):
    config.validate()
    assert ScenarioConfig.from_mapping(config.to_mapping()) == config
    text = yaml.safe_dump(config.to_mapping())
    assert ScenarioConfig.from_mapping(yaml.safe_load(text)) == config
