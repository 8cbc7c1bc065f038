import dataclasses
import random

import pytest

from dispo6.addressing import AddressState, Ipv6Address
from dispo6.engine import Node, Packet
from dispo6.home_agent import (
    AgentError,
    BindingUpdate,
    Encapsulated,
    HomeAgent,
    ManagementKind,
    ManagementMessage,
    ReverseTunneled,
)
from conftest import (HOME_PREFIX, PEER_PREFIX, VISITED_PREFIX, binding_of,
                      home_addresses)


class Sink(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.received = []

    def on_packet(self, packet):
        self.received.append((self.sim.now_us, packet))

    def on_timer(self, token):
        pass

    def inner_payloads(self):
        out = []
        for _, packet in self.received:
            if isinstance(packet.payload, Encapsulated):
                out.append(packet.payload.inner)
            else:
                out.append(packet)
        return out


class Forger(Node):
    """Sends one packet over and over: as a flood segment, or a timer
    per packet."""

    def __init__(self, sim, node_id, packet):
        super().__init__(sim, node_id)
        self.packet = packet

    def emit(self, segment, first_us, interval_us, count):
        if segment:
            assert self.sim.flood(self.node_id, self.packet, first_us,
                                  interval_us, count)
            return
        for k in range(count):
            self.sim.call_at(first_us + k * interval_us, self.node_id, k)

    def on_timer(self, token):
        self.sim.send(self.packet)

    def on_run(self, packet, first_us, interval_us, count):
        return packet


def coa(iid):
    return Ipv6Address(VISITED_PREFIX, iid)


def peer(iid):
    return Ipv6Address(PEER_PREFIX, iid)


def attach(world, host_id="host", care_of=None, sink=None):
    tag = f"sa-{host_id}"
    world.agent.attach_host(host_id, tag)
    if care_of is not None:
        world.agent.process_binding_update(host_id, tag, care_of)
        if sink is not None:
            world.sim.register_route(care_of, sink.node_id)
    return tag


class TestAllocation:
    def test_two_hundred_allocations_distinct_same_binding(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))
        addresses = [world.agent.generate_home_address("host", tag)
                     for _ in range(200)]
        assert len(set(addresses)) == 200
        for address in addresses:
            assert address.prefix == HOME_PREFIX
            assert world.agent.state_of(address) is AddressState.ACTIVE
        assert binding_of(world.agent, "host") == coa(1)
        assert home_addresses(world.agent, "host") == set(addresses)

    def test_forced_collision_retries(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))

        class RiggedRng:
            def __init__(self, values):
                self.values = list(values)

            def getrandbits(self, bits):
                return self.values.pop(0)

        world.sim.rng = RiggedRng([0x77, 0x77, 0x78])  # repeat, then fresh
        first = world.agent.generate_home_address("host", tag)
        second = world.agent.generate_home_address("host", tag)
        assert first.iid == 0x77
        assert second.iid == 0x78

    def test_unauthenticated_request_rejected_without_allocation(self, make_world):
        world = make_world()
        attach(world, care_of=coa(1))
        with pytest.raises(AgentError, match="tag: host"):
            world.agent.generate_home_address("host", "wrong-tag")
        assert home_addresses(world.agent, "host") == set()
        with pytest.raises(AgentError, match="tag: stranger"):
            world.agent.generate_home_address("stranger", "sa-x")

    def test_pool_exhaustion_signalled(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))

        class StuckRng:
            def getrandbits(self, bits):
                return 0x99

        world.sim.rng = StuckRng()
        world.agent.generate_home_address("host", tag)  # claims 0x99
        with pytest.raises(AgentError, match="free interface identifier"):
            world.agent.generate_home_address("host", tag)


class TestBindingUpdates:
    def test_bu_moves_every_home_address(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1))
        addresses = [world.agent.generate_home_address("host", tag)
                     for _ in range(3)]
        world.agent.process_binding_update("host", tag, coa(2))
        world.sim.register_route(coa(2), "sink")
        for address in addresses:
            world.sim.send(Packet(src=peer(5), dst=address, payload="x"))
        world.sim.run()
        assert len(sink.received) == 3
        assert all(p.dst == coa(2) for _, p in sink.received)

    def test_bu_idempotent(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))
        world.agent.process_binding_update("host", tag, coa(2))
        world.agent.process_binding_update("host", tag, coa(2))
        assert binding_of(world.agent, "host") == coa(2)

    def test_forged_bu_over_wire_ignored(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))
        world.sim.send(Packet(src=peer(66), dst=world.agent.admin_address,
                              payload=BindingUpdate(host_id="host",
                                                    auth="forged",
                                                    care_of=coa(9))))
        world.sim.run()
        assert binding_of(world.agent, "host") == coa(1)
        assert world.agent.counters.rejected_management == 1

    def test_wire_bu_applies_and_acks(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1))
        world.sim.register_route(coa(2), "sink")
        world.sim.send(Packet(src=coa(2), dst=world.agent.admin_address,
                              payload=BindingUpdate(host_id="host", auth=tag,
                                                    care_of=coa(2))))
        world.sim.run()
        assert binding_of(world.agent, "host") == coa(2)
        assert len(sink.received) == 1  # the binding ack


class TestInterception:
    def test_active_tunneled_blocked_dropped_silently(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        sender = Sink(world.sim, "sender")
        world.sim.register_route(peer(5), "sender")
        tag = attach(world, care_of=coa(1))
        world.sim.register_route(coa(1), "sink")
        target = world.agent.generate_home_address("host", tag)
        other = world.agent.generate_home_address("host", tag)

        world.agent.block_address("host", tag, target)
        world.sim.send(Packet(src=peer(5), dst=target, payload="to blocked"))
        world.sim.send(Packet(src=peer(5), dst=other, payload="to active"))
        world.sim.run()

        inner = sink.inner_payloads()
        assert [p.payload for p in inner] == ["to active"]
        assert world.agent.counters.dropped_blocked == 1
        assert world.agent.counters.tunneled == 1
        # silence: nothing came back to the sender for the blocked send
        assert sender.received == []

    def test_unknown_address_in_prefix_dropped(self, make_world):
        world = make_world()
        attach(world, care_of=coa(1))
        world.sim.send(Packet(src=peer(5),
                              dst=Ipv6Address(HOME_PREFIX, 0xDEAD),
                              payload="x"))
        world.sim.run()
        assert world.agent.counters.dropped_unknown == 1

    def test_counter_conservation_over_random_trace(self, make_world):
        world = make_world()
        Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1))
        world.sim.register_route(coa(1), "sink")
        addresses = [world.agent.generate_home_address("host", tag)
                     for _ in range(5)]
        rng = random.Random(3)
        for step in range(400):
            roll = rng.random()
            hoa = rng.choice(addresses)
            if roll < 0.1:
                world.agent.block_address("host", tag, hoa)
            elif roll < 0.2:
                world.agent.reactivate_address("host", tag, hoa)
            elif roll < 0.25:
                world.sim.send(Packet(src=peer(9),
                                      dst=Ipv6Address(HOME_PREFIX, rng.getrandbits(64)),
                                      payload=step))
            else:
                world.sim.send(Packet(src=peer(9), dst=hoa, payload=step))
            world.sim.run()
            assert world.agent.counters.conserved()


class TestBlockReactivate:
    def test_block_isolates_single_address(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1))
        world.sim.register_route(coa(1), "sink")
        first = world.agent.generate_home_address("host", tag)
        second = world.agent.generate_home_address("host", tag)
        world.agent.block_address("host", tag, first)
        assert world.agent.state_of(first) is AddressState.BLOCKED
        assert world.agent.state_of(second) is AddressState.ACTIVE

    def test_double_block_idempotent(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))
        hoa = world.agent.generate_home_address("host", tag)
        world.agent.block_address("host", tag, hoa)
        world.agent.block_address("host", tag, hoa)
        assert world.agent.state_of(hoa) is AddressState.BLOCKED
        world.agent.reactivate_address("host", tag, hoa)
        assert world.agent.state_of(hoa) is AddressState.ACTIVE

    def test_cross_host_block_rejected(self, make_world):
        world = make_world()
        tag_a = attach(world, host_id="host-a", care_of=coa(1))
        attach(world, host_id="host-b", care_of=coa(2))
        hoa_a = world.agent.generate_home_address("host-a", tag_a)
        for change in (world.agent.block_address,
                       world.agent.reactivate_address,
                       world.agent.deconfigure_address):
            with pytest.raises(AgentError, match="not a home address of host-b"):
                change("host-b", "sa-host-b", hoa_a)
        assert world.agent.state_of(hoa_a) is AddressState.ACTIVE

    def test_block_reactivate_cycles_end_active(self, make_world):
        world = make_world()
        tag = attach(world, care_of=coa(1))
        hoa = world.agent.generate_home_address("host", tag)
        for _ in range(7):
            world.agent.block_address("host", tag, hoa)
            world.agent.reactivate_address("host", tag, hoa)
        assert world.agent.state_of(hoa) is AddressState.ACTIVE

    def test_block_then_reactivate_restores_delivery(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1))
        world.sim.register_route(coa(1), "sink")
        hoa = world.agent.generate_home_address("host", tag)
        world.agent.block_address("host", tag, hoa)
        world.sim.send(Packet(src=peer(5), dst=hoa, payload="lost"))
        world.sim.run()
        world.agent.reactivate_address("host", tag, hoa)
        world.sim.send(Packet(src=peer(5), dst=hoa, payload="delivered"))
        world.sim.run()
        assert [p.payload for p in sink.inner_payloads()] == ["delivered"]

    def test_deconfigure_is_terminal(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1), sink=sink)
        hoa = world.agent.generate_home_address("host", tag)
        world.agent.deconfigure_address("host", tag, hoa)
        assert world.agent.state_of(hoa) is AddressState.DECONFIGURED
        world.agent.reactivate_address("host", tag, hoa)
        world.agent.block_address("host", tag, hoa)
        assert world.agent.state_of(hoa) is AddressState.DECONFIGURED
        # over the wire, the request is ACKed and changes nothing
        world.sim.send(Packet(src=coa(1), dst=world.agent.admin_address,
                              payload=ManagementMessage(
                                  kind=ManagementKind.BLOCK_REQUEST,
                                  host_id="host", auth=tag, hoa=hoa)))
        world.sim.send(Packet(src=peer(5), dst=hoa, payload="x"))
        world.sim.run()
        assert world.agent.state_of(hoa) is AddressState.DECONFIGURED
        assert [(p.payload.kind, p.payload.hoa)
                for _, p in sink.received] == [(ManagementKind.ACK, hoa)]
        assert world.agent.counters.dropped_unknown == 1


class TestReverseTunnel:
    def test_correspondent_sees_home_address_source(self, make_world):
        world = make_world()
        correspondent = Sink(world.sim, "corr")
        world.sim.register_route(peer(5), "corr")
        tag = attach(world, care_of=coa(1))
        hoa = world.agent.generate_home_address("host", tag)
        inner = Packet(src=hoa, dst=peer(5), payload="reply")
        world.sim.send(Packet(src=coa(1), dst=world.agent.admin_address,
                              payload=ReverseTunneled(inner=inner,
                                                      host_id="host", auth=tag)))
        world.sim.run()
        assert len(correspondent.received) == 1
        delivered = correspondent.received[0][1]
        assert delivered.src == hoa  # care-of address hidden

    def test_foreign_source_dropped(self, make_world):
        world = make_world()
        correspondent = Sink(world.sim, "corr")
        world.sim.register_route(peer(5), "corr")
        tag_a = attach(world, host_id="host-a", care_of=coa(1))
        tag_b = attach(world, host_id="host-b", care_of=coa(2))
        hoa_b = world.agent.generate_home_address("host-b", tag_b)
        inner = Packet(src=hoa_b, dst=peer(5), payload="spoof")
        assert not world.agent.reverse_tunnel("host-a", tag_a, inner)
        world.sim.run()
        assert correspondent.received == []

    def test_blocked_source_still_relays_outbound(self, make_world):
        # blocking filters inbound only; outbound use stays the owner's call
        world = make_world()
        correspondent = Sink(world.sim, "corr")
        world.sim.register_route(peer(5), "corr")
        tag = attach(world, care_of=coa(1))
        hoa = world.agent.generate_home_address("host", tag)
        world.agent.block_address("host", tag, hoa)
        inner = Packet(src=hoa, dst=peer(5), payload="outbound")
        assert world.agent.reverse_tunnel("host", tag, inner)
        world.sim.run()
        assert len(correspondent.received) == 1


    def test_forged_tag_relays_nothing(self, make_world):
        world = make_world()
        correspondent = Sink(world.sim, "corr")
        world.sim.register_route(peer(5), "corr")
        tag = attach(world, care_of=coa(1))
        hoa = world.agent.generate_home_address("host", tag)
        forged = Packet(src=coa(1), dst=world.agent.admin_address,
                        payload=ReverseTunneled(
                            inner=Packet(src=hoa, dst=peer(5), payload="x"),
                            host_id="host", auth="forged"))
        world.sim.send(forged)
        sent = world.sim.counters.sent
        assert world.sim.run() == 1
        assert world.agent.counters.rejected_management == 1
        assert world.sim.counters.sent == sent
        assert correspondent.received == []

    def test_forged_tag_segment_matches_per_packet(self, make_world):
        """A flood of forged reverse tunnels as one segment (`on_run`) and
        as a packet each: the same counters, and nothing relayed."""
        results = []
        for segment in (True, False):
            world = make_world()
            Sink(world.sim, "corr")
            world.sim.register_route(peer(5), "corr")
            tag = attach(world, care_of=coa(1))
            hoa = world.agent.generate_home_address("host", tag)
            forger = Forger(world.sim, "forger", Packet(
                src=coa(1), dst=world.agent.admin_address,
                payload=ReverseTunneled(
                    inner=Packet(src=hoa, dst=peer(5), payload="x"),
                    host_id="host", auth="forged")))
            forger.emit(segment, first_us=1_000, interval_us=10_000,
                        count=50)
            world.sim.run()
            results.append((dataclasses.asdict(world.sim.counters),
                            dataclasses.asdict(world.agent.counters)))
        assert results[0] == results[1]
        engine, agent = results[0]
        assert agent["rejected_management"] == 50
        assert engine["sent"] == engine["delivered"] == 50


class TestManagementWire:
    def test_unauthenticated_kinds_ignored(self, make_world):
        # every kind, the ones the agent only sends too, under a wrong tag
        # or for a host it does not know: honoured and answered never
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1), sink=sink)
        hoa = world.agent.generate_home_address("host", tag)
        for host_id in ("host", "stranger"):
            for kind in ManagementKind:
                world.sim.send(Packet(
                    src=peer(66), dst=world.agent.admin_address,
                    payload=ManagementMessage(kind=kind, host_id=host_id,
                                              auth="bad", hoa=hoa)))
        world.sim.run()
        assert world.agent.state_of(hoa) is AddressState.ACTIVE
        assert world.agent.counters.rejected_management == 2 * len(ManagementKind)
        assert sink.received == []

    def test_hoa_request_grant_roundtrip(self, make_world):
        world = make_world()
        sink = Sink(world.sim, "sink")
        tag = attach(world, care_of=coa(1))
        world.sim.register_route(coa(1), "sink")
        world.sim.send(Packet(src=coa(1), dst=world.agent.admin_address,
                              payload=ManagementMessage(
                                  kind=ManagementKind.HOA_REQUEST,
                                  host_id="host", auth=tag)))
        world.sim.run()
        grants = [p.payload for _, p in sink.received
                  if isinstance(p.payload, ManagementMessage)
                  and p.payload.kind is ManagementKind.HOA_GRANT]
        assert len(grants) == 1
        assert world.agent.state_of(grants[0].hoa) is AddressState.ACTIVE
