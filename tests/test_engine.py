import pytest

from dispo6.addressing import Ipv6Address
from dispo6.adversary import Flooder
from dispo6.engine import (
    EPOCH,
    US_PER_DAY,
    US_PER_HOUR,
    US_PER_MINUTE,
    US_PER_SECOND,
    Node,
    Packet,
    PastEventError,
    SimTime,
    Simulator,
    day_hour_us,
    hhmm,
)
from conftest import record_deliveries


class Recorder(Node):
    """Node that logs everything it sees."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.packets = []
        self.timers = []

    def on_packet(self, packet):
        self.packets.append((self.sim.now_us, packet))

    def on_timer(self, token):
        self.timers.append((self.sim.now_us, token))


def addr(prefix=0x20010DB8_0000_0001, iid=0x42):
    return Ipv6Address(prefix, iid)


class TestSimTime:
    def test_day_hour_decomposition_exact(self):
        t = SimTime.at(17, 9.5)
        assert t == 17 * US_PER_DAY + 9 * US_PER_HOUR + 30 * US_PER_MINUTE
        assert day_hour_us(17, 9.5) == t and type(day_hour_us(17, 9.5)) is int
        assert hhmm(t) == "09:30"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimTime(-1)

    def test_ordering_and_arithmetic(self):
        t = SimTime.from_seconds(1.5)
        assert t.micros == 1_500_000 and type(t.micros) is int
        assert t / US_PER_SECOND == 1.5
        later = t.plus_seconds(2)
        assert type(later) is SimTime
        assert t < later == SimTime.from_seconds(3.5)

    def test_is_a_plain_int_to_the_library(self):
        t = SimTime(5)
        assert t == 5 and hash(t) == hash(5)
        assert {5: "x"}[t] == "x"
        assert type(t + 1) is int  # arithmetic leaves the type behind
        with pytest.raises(AttributeError):
            t.tag = 1  # slotted: no per-instant dict

    def test_clock_is_one_int_with_a_read_only_view(self, make_world):
        sim = make_world().sim
        sim.run_until(SimTime.from_seconds(2))
        assert type(sim.now_us) is int and sim.now_us == 2_000_000
        assert type(sim.now) is SimTime and sim.now == sim.now_us
        with pytest.raises(AttributeError):
            sim.now = SimTime(0)


class TestScheduling:
    def test_event_at_epoch_boundary_fires_first(self, make_world):
        world = make_world()
        node = Recorder(world.sim, "n")
        world.sim.call_at(EPOCH, "n", "first")
        world.sim.call_at(SimTime.from_seconds(1), "n", "second")
        world.sim.run()
        assert [t for _, t in node.timers] == ["first", "second"]

    def test_equal_times_delivered_in_schedule_order(self, make_world):
        world = make_world()
        node = Recorder(world.sim, "n")
        t = SimTime.from_seconds(5)
        for i in range(10):
            world.sim.call_at(t, "n", i)
        world.sim.run()
        assert [tok for _, tok in node.timers] == list(range(10))

    def test_past_event_rejected(self, make_world):
        world = make_world()
        Recorder(world.sim, "n")
        world.sim.call_at(SimTime.from_seconds(4), "n", "x")
        world.sim.run_until(SimTime.from_seconds(4))
        with pytest.raises(PastEventError):
            world.sim.call_at(SimTime.from_seconds(3), "n", "late")


class TestRunUntil:
    def test_empty_queue_returns_zero_and_advances(self, make_world):
        world = make_world()
        assert world.sim.run_until(SimTime.from_seconds(100)) == 0
        assert world.sim.now == SimTime.from_seconds(100)

    def test_thousand_day_horizon_terminates(self, make_world):
        world = make_world()
        node = Recorder(world.sim, "n")
        for day in (0, 500, 999):
            world.sim.call_at(SimTime.at(day, 12), "n", day)
        processed = world.sim.run_until(SimTime.at(1000))
        assert processed == 3
        assert world.sim.now == SimTime.at(1000)
        assert [tok for _, tok in node.timers] == [0, 500, 999]

    def test_identical_seed_and_scenario_trace(self):
        def trace(seed):
            sim = Simulator(seed)
            Recorder(sim, "n")
            # a spoofed flood draws each packet's source from the PRNG
            Flooder(sim, "f", addr(iid=1)).flood_between(
                EPOCH, SimTime.from_seconds(2), addr(), 100, spoof=True)
            deliveries = record_deliveries(sim)
            sim.register_route(addr(), "n")
            sim.run()
            return deliveries, sim.counters

        first_trace, first_counters = trace(7)
        second_trace, second_counters = trace(7)
        assert first_trace == second_trace
        assert first_counters == second_counters
        different, _ = trace(8)
        assert different != first_trace


class TestSend:
    def test_delivery_after_latency(self, make_world):
        world = make_world(latency_s=0.05)
        node = Recorder(world.sim, "n")
        world.sim.register_route(addr(), "n")
        world.sim.send(Packet(src=addr(iid=9), dst=addr(), payload="hi"))
        world.sim.run()
        assert node.packets[0][0] == 50_000  # now + 0.05 s

    def test_unroutable_black_holed_with_counter(self, make_world):
        world = make_world()
        world.sim.send(Packet(src=addr(iid=9), dst=addr(prefix=0xDEAD, iid=1),
                              payload="x"))
        world.sim.run()
        assert world.sim.counters.unroutable == 1
        assert world.sim.counters.delivered == 0

    def test_causality_no_delivery_before_send(self, make_world):
        world = make_world(latency_s=0.2)
        node = Recorder(world.sim, "n")
        world.sim.register_route(addr(), "n")
        send_at = []
        for i in range(20):
            world.sim.run_until(SimTime.from_seconds(i))
            send_at.append(world.sim.now_us)
            world.sim.send(Packet(src=addr(iid=9), dst=addr(), payload=i))
        world.sim.run()
        for (recv_us, packet), sent_us in zip(node.packets, send_at):
            assert recv_us >= sent_us

    def test_counter_conservation_snapshots(self, make_world):
        world = make_world()
        Recorder(world.sim, "n")
        world.sim.register_route(addr(), "n")
        rng_targets = [addr(), addr(iid=0xBAD), addr(prefix=0xFEED, iid=2)]
        for i in range(300):
            world.sim.send(Packet(src=addr(iid=1), dst=rng_targets[i % 3],
                                  payload=i))
            counters = world.sim.counters
            assert counters.conserved()
        world.sim.run()
        counters = world.sim.counters
        assert counters.in_flight == 0
        assert counters.sent == counters.delivered + counters.unroutable


class TestRouting:
    def test_prefix_route_catches_whole_prefix(self, make_world):
        world = make_world()
        node = Recorder(world.sim, "ha2")
        world.sim.register_prefix_route(0xABCD, "ha2")
        world.sim.send(Packet(src=addr(), dst=Ipv6Address(0xABCD, 77),
                              payload="into prefix"))
        world.sim.run()
        assert len(node.packets) == 1

    def test_exact_route_wins_over_prefix(self, make_world):
        world = make_world()
        exact = Recorder(world.sim, "exact")
        prefix = Recorder(world.sim, "prefix")
        world.sim.register_prefix_route(0xABCD, "prefix")
        world.sim.register_route(Ipv6Address(0xABCD, 5), "exact")
        world.sim.send(Packet(src=addr(), dst=Ipv6Address(0xABCD, 5),
                              payload="x"))
        world.sim.run()
        assert len(exact.packets) == 1
        assert prefix.packets == []
