import bisect
import dataclasses
import math
import random

import pytest

from dispo6.addressing import AddressState, Ipv6Address
from dispo6.adversary import Flooder
from dispo6.caller import CallerNode, CallOutcome
from dispo6.distribution import (HIP_RATE_THRESHOLD, HIP_WINDOW_S,
                                 AddressRequest, RequestOutcome)
from dispo6.energy import DEFAULT_PARAMS, Battery, EnergyAccount
from dispo6.engine import EPOCH, US_PER_SECOND, Packet, SimTime
from dispo6.home_agent import Encapsulated, ManagementKind, ManagementMessage
from dispo6.messages import (
    PRIME_REJECT_REASON,
    CallReject,
    CallRequest,
    PeerBindingUpdate,
    Ping,
    Pong,
    RouteOptimized,
)
from dispo6.mobile_host import POOL_SIZE, MobileHost, Mode
from dispo6.monitor import DETECTION_WINDOW_S, IntrusionMonitor
from conftest import (ATTACKER_PREFIX, PEER_PREFIX, VISITED_PREFIX, binding_of,
                      home_addresses, record_deliveries)


# the package's two monitors as (threshold, window_s): a host's watch on
# its addresses' packets and the HIP gate's count of each identity's requests
FLOOD_WATCH = (10.0, DETECTION_WINDOW_S)
HIP_REQUESTS = (HIP_RATE_THRESHOLD / HIP_WINDOW_S, HIP_WINDOW_S)


def make_host(world, node_id="host", fqdn="alice.home.example",
              mode=Mode.BIDIRECTIONAL_TUNNELING, **kwargs):
    host = MobileHost(world.sim, node_id, fqdn, world.names, mode=mode,
                      scheme=world.scheme, ca=world.ca,
                      pki_required=world.ca is not None, **kwargs)
    host.attach(world.agent, VISITED_PREFIX)
    return host


def make_caller(world, i=0, **kwargs):
    fqdn = f"corr{i:02d}.peers.example"
    keys = world.scheme.generate(world.sim.rng) if world.scheme else None
    cert = world.ca.issue(fqdn, keys.public) if world.ca else None
    return CallerNode(world.sim, f"caller-{i}", fqdn,
                      Ipv6Address(PEER_PREFIX, i + 2), world.names,
                      scheme=world.scheme, keys=keys, certificate=cert,
                      ca=world.ca,
                      require_signed_response=world.ca is not None, **kwargs)


def call_once(world, caller, target_fqdn):
    outcomes = []
    caller.place_call(target_fqdn, outcomes.append)
    world.sim.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestIntrusionMonitor:
    def test_flood_alert_within_window(self):
        monitor = IntrusionMonitor(threshold_pps=10.0)
        hoa = Ipv6Address(1, 1)
        alert = False
        # 100 packets/s: the alert must fire within the first ~1 s of flood
        for i in range(2000):
            alert = monitor.observe(hoa, SimTime(round(i * 1e4)))
            if alert:
                break
        assert alert is True
        assert monitor._windows[hoa].total / DETECTION_WINDOW_S > 10.0
        assert SimTime(round(i * 1e4)) / US_PER_SECOND <= 10.0

    def test_legitimate_rate_quiet(self):
        monitor = IntrusionMonitor(threshold_pps=10.0)
        hoa = Ipv6Address(1, 1)
        for minute in range(120):
            assert monitor.observe(hoa, SimTime.from_seconds(minute * 60)) is False

    def test_exact_threshold_burst_is_quiet(self):
        monitor = IntrusionMonitor(threshold_pps=10.0)
        hoa = Ipv6Address(1, 1)
        alerts = [monitor.observe(hoa, SimTime.from_seconds(5)) for _ in range(100)]
        assert not any(alerts)  # rate == threshold: strict >
        assert monitor.observe(hoa, SimTime.from_seconds(5)) is True

    @pytest.mark.parametrize("threshold", [0.15, 7.3, 10.0, 1e9])
    def test_observe_alerts_exactly_above_the_float_rate(self, threshold):
        """`observe` alerts exactly when its address's recounted window
        gives count / DETECTION_WINDOW_S > threshold, tested on each side
        of the boundary count. The window is filled by one run of packets
        at a single instant, so the largest threshold's count fits in it."""
        hoa, boundary = Ipv6Address(1, 1), math.floor(threshold * DETECTION_WINDOW_S)
        seen = []
        for count in range(max(1, boundary - 1), boundary + 3):
            monitor = IntrusionMonitor(threshold)
            if count > 1:
                monitor.observe_run(hoa, 0, 0, count - 1)
            alert = monitor.observe(hoa, 0)
            assert monitor._windows[hoa].total == count
            assert alert is (count / DETECTION_WINDOW_S > threshold)
            seen.append(alert)
        assert seen[0] is False and seen[-1] is True

    @pytest.mark.parametrize("watch,interval_s,before,count", [
        *(pytest.param(FLOOD_WATCH, 0.01, before, count, id=f"{before}-{count}")
          for before, count in [(95, 5), (95, 6), (0, 101), (50, 50),
                                (50, 51), (30, 200)]),
        # the 4th request alerts: one short of it and just there, on the
        # window's edge, and spaced so that the window never holds four
        *(pytest.param(HIP_REQUESTS, interval_s, before, count,
                       id=f"hip-{interval_s}s-{before}-{count}")
          for interval_s, before, count in [(60, 2, 1), (60, 2, 2),
                                            (200, 0, 4), (250, 0, 10),
                                            (300, 3, 5)]),
    ])
    def test_first_alert_is_the_packet_observe_alerts_on(self, watch,
                                                         interval_s, before,
                                                         count):
        """The closed form finds the packet of a run that `observe` alerts
        on when fed the packets one at a time, also when the window and
        the whole run just reach the alert count, for each of the
        package's monitors: a host's at 100 pkt/s and the HIP gate's."""
        hoa, interval_us = Ipv6Address(1, 1), round(interval_s * US_PER_SECOND)
        closed, stepped = (IntrusionMonitor(*watch) for _ in range(2))
        for monitor in (closed, stepped):
            for k in range(before):
                monitor.observe(hoa, k * interval_us)
        first_us = before * interval_us
        alerts = [stepped.observe(hoa, first_us + k * interval_us)
                  for k in range(count)]
        expected = alerts.index(True) if any(alerts) else count
        assert closed.first_alert(hoa, first_us, interval_us, count) == expected

    def test_closed_form_against_a_recount(self):
        """`since` and `first_alert` against a recount of every instant
        observed, over random windows of single instants and runs, with
        cutoffs inside runs (a run that straddles the cutoff) among them,
        for each of the package's monitors; the HIP gate's sees the same
        shapes stretched to its window."""
        rng = random.Random(5)
        hoa = Ipv6Address(1, 1)
        for threshold, window_s in (FLOOD_WATCH, HIP_REQUESTS):
            scale = round(window_s / DETECTION_WINDOW_S)
            window_us = round(window_s * US_PER_SECOND)
            straddled = alerted = 0
            for _ in range(2_000):
                monitor = IntrusionMonitor(threshold, window_s)
                seen, runs, now_us = [], [], 0
                for _ in range(rng.randint(1, 12)):
                    now_us += rng.randrange(3_000_000) * scale
                    if rng.random() < 0.4:
                        monitor.observe(hoa, now_us)
                        seen.append(now_us)
                        continue
                    interval_us = rng.randrange(1, 400_000) * scale
                    count = rng.randint(1, 60)
                    monitor.observe_run(hoa, now_us, interval_us, count)
                    runs.append((now_us, now_us + (count - 1) * interval_us))
                    seen.extend(now_us + k * interval_us for k in range(count))
                    now_us = seen[-1]
                window = monitor._windows[hoa]

                def recount(cutoff_us):
                    return len(seen) - bisect.bisect_left(seen, cutoff_us)

                assert window.total == recount(now_us - window_us)
                cutoffs = [rng.randint(now_us - window_us, now_us + 1)
                           for _ in range(4)]
                cutoffs += [rng.randint(max(first, now_us - window_us) + 1, last)
                            for first, last in runs
                            if max(first, now_us - window_us) < last]
                for cutoff_us in cutoffs:
                    assert window.since(cutoff_us) == recount(cutoff_us)
                    straddled += any(first < cutoff_us <= last
                                     for first, last in runs)
                first_us = now_us + rng.randrange(1, 2_000_000) * scale
                interval_us = rng.randrange(1, 200_000) * scale
                count = rng.randint(1, 300)
                run = [first_us + k * interval_us for k in range(count)]
                expected = next(
                    (j for j, at_us in enumerate(run)
                     if (recount(at_us - window_us) + j + 1
                         - bisect.bisect_left(run, at_us - window_us))
                     / window_s > threshold),
                    count)
                alerted += expected < count
                assert monitor.first_alert(hoa, first_us, interval_us,
                                           count) == expected
            assert straddled > 1_000 and alerted > 100


class TestMobility:
    def test_move_keeps_all_home_addresses_reachable(self, make_world):
        world = make_world()
        host = make_host(world)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        caller.learn_address(host.fqdn, hoa)
        host.move_to_subnet(0x20010DB802220000)
        world.sim.run()
        assert binding_of(world.agent, host.node_id) == host.coa
        assert call_once(world, caller, host.fqdn) is CallOutcome.CONNECTED

    def test_two_moves_last_writer_wins(self, make_world):
        world = make_world()
        host = make_host(world)
        host.move_to_subnet(0x20010DB802220000)
        host.move_to_subnet(0x20010DB803330000)
        final = host.coa
        world.sim.run()
        assert binding_of(world.agent, host.node_id) == final

    def test_bt_mode_move_sends_no_peer_updates(self, make_world):
        world = make_world()
        host = make_host(world)
        host.move_to_subnet(0x20010DB802220000)
        world.sim.run()
        assert host.counters.peer_binding_updates == 0


    @pytest.mark.parametrize("mode", list(Mode))
    def test_move_charges_every_packet_sent(self, make_world, mode):
        world = make_world()
        energy = EnergyAccount(Battery(), DEFAULT_PARAMS, 10.0, EPOCH)
        host = make_host(world, mode=mode, energy=energy)
        friend = make_caller(world)
        assert call_once(world, friend, host.fqdn) is CallOutcome.CONNECTED
        sent = []
        original = world.sim.send

        def spy(packet):
            sent.append(packet)
            return original(packet)

        world.sim.send = spy
        packets_before = energy.packets
        host.move_to_subnet(0x20010DB802220000)
        world.sim.send = original
        # a binding update to the home agent, plus one to the friend in RO mode
        assert len(sent) == (2 if mode is Mode.ROUTE_OPTIMIZATION else 1)
        assert energy.packets - packets_before == len(sent)


class TestCalls:
    def test_call_to_prime_returns_error_no_session(self, make_world):
        world = make_world()
        host = make_host(world)
        caller = make_caller(world)
        caller.learn_address(host.fqdn, host.prime)
        outcome = call_once(world, caller, host.fqdn)
        assert outcome is CallOutcome.REJECTED_BY_CALLEE
        assert host.counters.prime_call_rejects == 1
        assert host.counters.calls_accepted == 0

    def test_prime_reject_reason_on_wire(self, make_world):
        world = make_world()
        host = make_host(world)
        caller = make_caller(world)
        reasons = []
        original = caller.on_packet

        def spy(packet):
            if isinstance(packet.payload, CallReject):
                reasons.append(packet.payload.reason)
            original(packet)

        caller.on_packet = spy
        caller.learn_address(host.fqdn, host.prime)
        call_once(world, caller, host.fqdn)
        assert reasons == [PRIME_REJECT_REASON]

    def test_first_call_runs_handshake_then_connects(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        assert not caller.has_address_for(host.fqdn)
        outcome = call_once(world, caller, host.fqdn)
        assert outcome is CallOutcome.CONNECTED
        assert caller.has_address_for(host.fqdn)
        assert host.counters.calls_accepted == 1

    def test_repeat_call_reuses_stored_disposable(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        call_once(world, caller, host.fqdn)
        grants_after_first = host.responder.granted_total
        assert call_once(world, caller, host.fqdn) is CallOutcome.CONNECTED
        assert host.responder.granted_total == grants_after_first

    def test_call_to_an_unregistered_name_fails(self, make_world):
        world = make_world()
        caller = make_caller(world)
        outcomes = []
        caller.place_call("nobody.home.example", outcomes.append)
        world.sim.run()
        assert outcomes == [CallOutcome.FAILED]
        assert world.sim.counters.sent == 0

    @pytest.mark.parametrize("payload,to", [("address_request", "disposable"),
                                            ("call_request", "care_of")])
    def test_a_request_off_the_prime_or_a_call_to_the_care_of_is_unanswered(
            self, make_world, payload, to):
        """An address request to a disposable, or a call to the care-of
        address, reaches the host and gets no answer and no grant."""
        world = make_world()
        host = make_host(world)
        caller = make_caller(world)
        dst = (host.grant_out_of_band(caller.fqdn) if to == "disposable"
               else host.coa)
        message = (AddressRequest(requester_fqdn="corr01.peers.example",
                                  reply_to=caller.address, request_id=1)
                   if payload == "address_request"
                   else CallRequest(reply_to=caller.address, call_id=1))
        granted = host.responder.granted_total
        deliveries = record_deliveries(world.sim)
        world.sim.send(Packet(caller.address, dst, message))
        world.sim.run()
        nodes = [node for _, node, _ in deliveries]
        assert nodes[-1] == host.node_id and caller.node_id not in nodes
        assert host.responder.granted_total == granted
        assert host.counters.calls_accepted == 0
        assert host.counters.non_hoa_dropped == (payload == "call_request")

    def test_call_failure_marks_address_dead_then_rehandshake(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        call_once(world, caller, host.fqdn)
        first_hoa = caller.entry_for(host.fqdn).peer_address
        host.dispose_address(first_hoa)
        world.sim.run()
        # silence on the wire, learned only through the failed call
        assert call_once(world, caller, host.fqdn) is CallOutcome.FAILED
        assert caller.entry_for(host.fqdn).peer_known_blocked
        outcome = call_once(world, caller, host.fqdn)
        assert outcome is CallOutcome.CONNECTED
        second_hoa = caller.entry_for(host.fqdn).peer_address
        assert second_hoa != first_hoa


class TestDisposal:
    def test_tunneling_mode_keeps_care_of(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.BIDIRECTIONAL_TUNNELING)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        before = host.coa
        host.dispose_address(hoa)
        world.sim.run()
        assert host.coa == before

    def test_route_optimization_rotates_care_of(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        before = host.coa
        host.dispose_address(hoa)
        world.sim.run()
        assert host.coa != before
        assert binding_of(world.agent, host.node_id) == host.coa

    def test_ro_disposal_kills_attacker_cached_care_of(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION,
                         detection_threshold_pps=1e9)
        attacker = make_caller(world, i=50)
        hoa = host.grant_out_of_band(attacker.fqdn)
        attacker.learn_address(host.fqdn, hoa)
        # a tunneled packet provokes the RO binding update that leaks the coa
        world.sim.send(Packet(src=attacker.address, dst=hoa, payload=Ping()))
        world.sim.run()
        leaked_coa = attacker._route_cache.get(hoa)
        assert leaked_coa == host.coa
        host.dispose_address(hoa)
        world.sim.run()
        pings_before = host.counters.pings
        delivered_before = world.sim.counters.delivered
        for _ in range(20):
            world.sim.send(Packet(src=attacker.address, dst=hoa, payload=Ping()))
            world.sim.send(Packet(src=attacker.address, dst=leaked_coa,
                                  payload=Ping()))
        world.sim.run()
        assert host.counters.pings == pings_before
        assert host.counters.stale_dropped == 0
        assert world.sim.counters.unroutable >= 20  # old coa black-holed

    @pytest.mark.parametrize("mode", list(Mode))
    def test_block_ack_reaches_host(self, make_world, mode):
        # in RO mode the care-of address rotates; the block request must
        # leave from the new one, or the agent's ACK is black-holed and
        # counted with the attack traffic as unroutable
        world = make_world()
        host = make_host(world, mode=mode)
        hoa = host.grant_out_of_band(make_caller(world).fqdn)
        world.sim.run()
        acks = []
        receive = host.on_packet

        def spy(packet):
            message = packet.payload
            if (isinstance(message, ManagementMessage)
                    and message.kind is ManagementKind.ACK):
                acks.append((message.hoa, message.ok))
            receive(packet)

        host.on_packet = spy
        host.dispose_address(hoa)
        world.sim.run()
        assert acks == [(hoa, True)]
        assert world.sim.counters.unroutable == 0

    def test_ro_prime_disposal_keeps_care_of(self, make_world):
        # the prime sends no binding update, so nobody learned the care-of
        # address from it, and the peers need not be told a new one
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        friend = make_caller(world, i=51)
        assert call_once(world, friend, host.fqdn) is CallOutcome.CONNECTED
        before = host.coa
        updates = host.counters.peer_binding_updates
        acks = []
        receive = host.on_packet

        def spy(packet):
            message = packet.payload
            if (isinstance(message, ManagementMessage)
                    and message.kind is ManagementKind.ACK):
                acks.append((message.hoa, packet.dst))
            receive(packet)

        host.on_packet = spy
        host.dispose_address(host.prime, auto_reactivate=False)
        world.sim.run()
        assert host.coa == before
        assert host.counters.peer_binding_updates == updates
        assert world.agent.state_of(host.prime) is AddressState.BLOCKED
        assert acks == [(host.prime, before)]
        assert world.sim.counters.unroutable == 0
        friend_hoa = friend.entry_for(host.fqdn).peer_address
        assert friend._route_cache[friend_hoa] == host.coa

    def test_disposed_holder_not_told_new_care_of(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        attacker = make_caller(world, i=50)
        friend = make_caller(world, i=51)
        assert call_once(world, attacker, host.fqdn) is CallOutcome.CONNECTED
        assert call_once(world, friend, host.fqdn) is CallOutcome.CONNECTED
        host.dispose_address(attacker.entry_for(host.fqdn).peer_address)
        world.sim.run()
        assert host.coa not in attacker._route_cache.values()
        friend_hoa = friend.entry_for(host.fqdn).peer_address
        assert friend._route_cache[friend_hoa] == host.coa

    def test_flood_alert_not_answered_with_new_care_of(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        attacker = make_caller(world, i=50)
        hoa = host.grant_out_of_band(attacker.fqdn)
        # 150 pings at once: the 101st crosses 10 pps over the 10 s window
        for _ in range(150):
            world.sim.send(Packet(src=attacker.address, dst=hoa, payload=Ping()))
        world.sim.run()
        assert host.counters.alerts == 1
        assert host.address_states[hoa] is AddressState.BLOCKED
        assert host.coa not in attacker._route_cache.values()

    def test_dispose_prime_disables_distribution_only(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        early_caller = make_caller(world, i=0)
        late_caller = make_caller(world, i=1)
        assert call_once(world, early_caller, host.fqdn) is CallOutcome.CONNECTED
        host.dispose_address(host.prime, auto_reactivate=False)
        world.sim.run()
        assert host.counters.prime_disposals == 1
        # fresh correspondents cannot reach the distribution protocol
        assert call_once(world, late_caller, host.fqdn) is CallOutcome.REJECTED_PRIME_BLOCKED
        # holders of a disposable are untouched
        assert call_once(world, early_caller, host.fqdn) is CallOutcome.CONNECTED

    def test_prime_auto_reactivates_after_quiet_period(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        host.dispose_address(host.prime)  # policy arms the reactivation timer
        world.sim.run_until(SimTime.from_seconds(30))
        assert host.address_states[host.prime] is AddressState.BLOCKED
        world.sim.run_until(SimTime.from_seconds(120))
        assert host.address_states[host.prime] is AddressState.ACTIVE
        assert world.agent.state_of(host.prime) is AddressState.ACTIVE
        assert call_once(world, caller, host.fqdn) is CallOutcome.CONNECTED

    def test_a_dead_host_leaves_its_prime_blocked(self, make_world):
        """A host whose battery is known dead handles no timer, so the
        reactivation its disposal armed never fires."""
        world = make_world()
        # 10 s awake after the block request, then about 8 s napping
        battery = Battery(capacity=12 * DEFAULT_PARAMS.p_active_idle)
        account = EnergyAccount(battery, DEFAULT_PARAMS, 10.0, EPOCH)
        host = make_host(world, energy=account)
        host.dispose_address(host.prime)
        world.sim.run_until(SimTime.from_seconds(59))
        # the day's battery row, as a scenario run writes it
        assert account.row(world.sim.now_us)[2] == "dead"
        world.sim.run_until(SimTime.from_seconds(120))
        assert host.address_states[host.prime] is AddressState.BLOCKED
        assert host.counters.reactivations == 0

    def test_dispose_idempotent(self, make_world):
        world = make_world()
        host = make_host(world)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        host.dispose_address(hoa)
        host.dispose_address(hoa)
        assert host.counters.disposals == 1


class TestSpitBlocking:
    def test_spit_caller_blocked_and_refused(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        spitter = make_caller(world, i=7)
        bystander = make_caller(world, i=8)
        assert call_once(world, spitter, host.fqdn) is CallOutcome.CONNECTED
        assert call_once(world, bystander, host.fqdn) is CallOutcome.CONNECTED
        host.spit_block(spitter.fqdn)
        world.sim.run()
        # further calls die in silence at the home agent
        dropped_before = world.agent.counters.dropped_blocked
        assert call_once(world, spitter, host.fqdn) is CallOutcome.FAILED
        assert world.agent.counters.dropped_blocked > dropped_before
        # a new handshake from the same identity is explicitly refused
        spitter.entry_for(host.fqdn).peer_address = None
        spitter.entry_for(host.fqdn).peer_known_blocked = False
        assert call_once(world, spitter, host.fqdn) is CallOutcome.REJECTED_BY_CALLEE
        # other peers keep working
        assert call_once(world, bystander, host.fqdn) is CallOutcome.CONNECTED


class TestPool:
    def test_a_miss_requests_no_replacement(self, make_world):
        """A burst of grants larger than the pool: the misses are
        generated at once, and the refills of the addresses taken from
        the pool bring it back to POOL_SIZE, not past it."""
        world = make_world()
        host = make_host(world)
        for burst in range(2):
            granted = [host.grant_out_of_band(f"peer{burst}{i}.example")
                       for i in range(POOL_SIZE + 2)]
            assert len(set(granted)) == POOL_SIZE + 2
            assert host.counters.pool_misses == 2 * (burst + 1)
            world.sim.run()
            assert len(host._pool) == POOL_SIZE
        # the prime, the pool built at attach and 6 grants a burst
        assert len(home_addresses(world.agent, host.node_id)) == (
            1 + POOL_SIZE + 2 * (POOL_SIZE + 2))

    def test_a_forged_grant_never_enters_the_pool(self, make_world):
        """A grant without the host's tag, sent straight to the care-of
        address that route optimization reveals, hands no correspondent
        the sender's address."""
        world = make_world(seed=1)
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        forged = Ipv6Address(ATTACKER_PREFIX, 0xA)
        world.sim.send(Packet(src=forged, dst=host.coa,
                              payload=ManagementMessage(
                                  kind=ManagementKind.HOA_GRANT,
                                  host_id=host.node_id, auth="guess",
                                  hoa=forged)))
        world.sim.run()
        assert forged not in host.address_states
        granted = [host.grant_out_of_band(f"peer{i}.example")
                   for i in range(POOL_SIZE + 2)]
        assert forged not in granted


class TestCallWork:
    """What one call costs the engine: the events `run` processes and the
    packets sent. An extra hop or timer on the call path shows here."""

    @pytest.mark.parametrize("pki", [False, True])
    @pytest.mark.parametrize("mode,first,again", [
        # a handshake, the pool's refill round trip, then the call; again,
        # the call alone: in BT mode every packet to or from the host
        # crosses the home agent, and in RO mode the call and its answer
        # go straight to and from the care-of address the first call
        # announced
        (Mode.BIDIRECTIONAL_TUNNELING, (12, 10), (5, 4)),
        (Mode.ROUTE_OPTIMIZATION, (11, 9), (3, 2)),
    ])
    def test_events_and_sends_per_call(self, make_world, pki, mode, first,
                                       again):
        world = make_world(pki=pki)
        host = make_host(world, mode=mode)
        caller = make_caller(world)
        world.sim.run()
        for expected in (first, again):
            outcomes = []
            sent = world.sim.counters.sent
            caller.place_call(host.fqdn, outcomes.append)
            events = world.sim.run()
            assert outcomes == [CallOutcome.CONNECTED]
            assert (events, world.sim.counters.sent - sent) == expected


class TestInjectivity:
    def test_one_address_per_peer(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        granted = []
        for i in range(12):
            caller = make_caller(world, i=i)
            assert call_once(world, caller, host.fqdn) is CallOutcome.CONNECTED
            granted.append(caller.entry_for(host.fqdn).peer_address)
        assert len(set(granted)) == len(granted)
        grants = list(host.responder.grants.values())
        assert len(grants) == 12
        assert len(set(grants)) == len(grants)


class TestLocationPrivacy:
    def test_bt_mode_never_reveals_care_of(self, make_world):
        world = make_world(pki=True)
        host = make_host(world, mode=Mode.BIDIRECTIONAL_TUNNELING)
        caller = make_caller(world)
        deliveries = record_deliveries(world.sim)
        call_once(world, caller, host.fqdn)
        world.sim.send(Packet(src=caller.address,
                              dst=caller.entry_for(host.fqdn).peer_address,
                              payload=Ping()))
        world.sim.run()

        def addresses_in(value):
            if isinstance(value, Ipv6Address):
                yield value
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                for f in dataclasses.fields(value):
                    yield from addresses_in(getattr(value, f.name))
            elif isinstance(value, tuple):  # record packet types
                for item in value:
                    yield from addresses_in(item)

        seen = set()
        for _, target, payload in deliveries:
            if target == caller.node_id:
                seen.update(addresses_in(payload))
        assert host.coa not in seen

    def test_replies_sourced_from_home_address(self, make_world):
        world = make_world()
        host = make_host(world)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        caller.learn_address(host.fqdn, hoa)
        pongs = []
        original = caller.on_packet

        def spy(packet):
            if isinstance(packet.payload, Pong):
                pongs.append(packet)
            original(packet)

        caller.on_packet = spy
        world.sim.send(Packet(src=caller.address, dst=hoa, payload=Ping()))
        world.sim.run()
        assert len(pongs) == 1
        assert pongs[0].src == hoa


def addressed_to(deliveries, node_id, payload_type):
    """Packets carrying `payload_type` that reached `node_id`, as delivered."""
    return [packet for _, target, packet in deliveries
            if target == node_id and isinstance(packet, Packet)
            and type(getattr(packet.payload, "inner", packet).payload)
            is payload_type]


class TestMobileToMobile:
    @pytest.mark.parametrize("caller_mode", list(Mode))
    @pytest.mark.parametrize("callee_mode", list(Mode))
    def test_calls_survive_callee_move(self, make_world, caller_mode,
                                       callee_mode):
        world = make_world()
        a = make_host(world, node_id="a", fqdn="alice.home.example",
                      mode=caller_mode)
        b = make_host(world, node_id="b", fqdn="bob.home.example",
                      mode=callee_mode)
        deliveries = record_deliveries(world.sim)
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        b.move_to_subnet(0x20010DB802220000)
        world.sim.run()
        # in RO mode the callee has sent the caller its new care-of address
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        assert b.counters.non_hoa_dropped == 0
        assert a.counters.calls_placed == 3
        # the held disposable goes dark; the retry asks the prime afresh
        b.dispose_address(a.book[b.fqdn].peer_address)
        world.sim.run()
        assert call_once(world, a, b.fqdn) is CallOutcome.FAILED
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        assert b.counters.non_hoa_dropped == 0
        requests = addressed_to(deliveries, b.node_id, AddressRequest)
        assert len(requests) == 2
        for packet in requests:
            # tunneled by the home agent, never sent to a cached care-of
            assert packet.src == world.agent.admin_address
            assert type(packet.payload) is Encapsulated
            assert packet.payload.inner.dst == b.prime


class TestPrimeHidesCareOf:
    """In RO mode only disposables announce the care-of address."""

    def test_request_to_prime_leaves_no_route(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        stranger = make_caller(world)
        results = []
        stranger.request_address(host.fqdn, results.append)
        world.sim.run()
        assert results[0].outcome is RequestOutcome.GRANTED
        assert host.prime not in stranger._route_cache
        assert host.coa not in stranger._route_cache.values()

    @pytest.mark.parametrize("caller_mode", list(Mode))
    def test_moved_ro_callee_can_call_back(self, make_world, caller_mode):
        world = make_world()
        a = make_host(world, node_id="a", fqdn="alice.home.example",
                      mode=caller_mode)
        b = make_host(world, node_id="b", fqdn="bob.home.example",
                      mode=Mode.ROUTE_OPTIMIZATION)
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        b.move_to_subnet(0x20010DB802220000)
        world.sim.run()
        # A's reply to B's request must not go to B's abandoned care-of
        assert call_once(world, b, a.fqdn) is CallOutcome.CONNECTED


class TestRouteOptimizedPeers:
    """A correspondent's side of route optimization: what it does with a
    binding update, and where its replies go."""

    def test_a_caller_pongs_a_bound_pinger_at_its_care_of(self, make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        caller.learn_address(host.fqdn, hoa)
        # the call reaches the host tunneled, and the host binds the caller
        assert call_once(world, caller, host.fqdn) is CallOutcome.CONNECTED
        assert caller._route_cache[hoa] == host.coa
        intercepted = world.agent.counters.intercepted
        deliveries = record_deliveries(world.sim)
        world.sim.send(Packet(src=hoa, dst=caller.address, payload=Ping()))
        world.sim.run()
        pongs = addressed_to(deliveries, host.node_id, Pong)
        assert len(pongs) == 1
        assert pongs[0].dst == host.coa
        assert type(pongs[0].payload) is RouteOptimized
        assert pongs[0].payload.inner == Packet(caller.address, hoa, Pong())
        assert world.agent.counters.intercepted == intercepted

    def test_a_binding_update_from_a_non_owner_changes_no_route(self,
                                                               make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        before = dict(caller._route_cache)
        world.sim.send(Packet(
            src=Ipv6Address(ATTACKER_PREFIX, 9), dst=caller.address,
            payload=PeerBindingUpdate(home_address=hoa,
                                      care_of=Ipv6Address(ATTACKER_PREFIX, 10))))
        world.sim.run()
        assert caller._route_cache == before

    def test_a_spoofed_flood_under_the_threshold_binds_boundedly(self,
                                                                make_world):
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        hoa = host.grant_out_of_band("peer.example")
        flooder = Flooder(world.sim, "flooder", Ipv6Address(ATTACKER_PREFIX, 2))
        # 5 pkt/s stays under the 10 pkt/s detection threshold
        flooder.flood_between(0, 2000 * US_PER_SECOND, hoa, 5.0, spoof=True)
        world.sim.run()
        assert host.counters.alerts == 0
        # one entry per disposable, not per spoofed source
        assert len(host._peer_bu_sent) <= len(host.address_states)

    def test_callers_on_one_leaked_disposable_bind_boundedly(self,
                                                            make_world):
        """500 callers hold one leaked disposable and each call it once, 5
        calls/s, under the detection threshold: every call connects, and
        the host keeps one peer per disposable, not one per caller."""
        world = make_world()
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        hoa = host.grant_out_of_band("leaker.example")
        outcomes = []
        for i in range(500):
            world.sim.run_until(i * US_PER_SECOND // 5)
            caller = make_caller(world, i)
            caller.learn_address(host.fqdn, hoa)
            caller.place_call(host.fqdn, outcomes.append)
        world.sim.run()
        assert outcomes == [CallOutcome.CONNECTED] * 500
        assert len(host._active_peers) <= len(host.address_states)
        assert len(host._peer_bu_sent) <= len(host.address_states)


class TestPairing:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_pairing_exchanges_disposables_and_keys(self, make_world, mode):
        world = make_world(pki=True)
        a = make_host(world, node_id="a", fqdn="alice.home.example", mode=mode)
        b = make_host(world, node_id="b", fqdn="bob.home.example", mode=mode)
        handled = []
        for host in (a, b):
            original = host.responder.handle_request

            def spy(request, now, _original=original):
                handled.append(request)
                return _original(request, now)

            host.responder.handle_request = spy
        result = a.pair_with(b)
        assert result.confirmed
        mine, theirs = a.book[b.fqdn], b.book[a.fqdn]
        assert mine.peer_pubkey == b.keys.public
        assert theirs.peer_pubkey == a.keys.public
        assert mine.peer_address == b.responder.grants[a.fqdn]
        assert theirs.peer_address == a.responder.grants[b.fqdn]
        assert b.address_states[mine.peer_address] is AddressState.ACTIVE
        assert a.address_states[theirs.peer_address] is AddressState.ACTIVE
        assert mine.peer_address not in (a.prime, b.prime)
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        assert call_once(world, b, a.fqdn) is CallOutcome.CONNECTED
        assert handled == []

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_host_calls_a_peer_from_the_disposable_it_granted(self,
                                                                make_world,
                                                                mode):
        """The callee answers a call where the caller asks, so a host that
        called from its prime could reach no one while the prime is
        blocked. It calls a peer from the disposable it granted that peer
        while that is active, and from the prime otherwise."""
        world = make_world(pki=True)
        a = make_host(world, node_id="a", fqdn="alice.home.example", mode=mode)
        b = make_host(world, node_id="b", fqdn="bob.home.example", mode=mode)
        assert a.pair_with(b).confirmed
        granted = a.responder.grants[b.fqdn]
        a.dispose_address(a.prime, auto_reactivate=False)
        world.sim.run()
        deliveries = record_deliveries(world.sim)
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        assert call_once(world, b, a.fqdn) is CallOutcome.CONNECTED
        a.reactivate_address(a.prime)
        a.dispose_address(granted)
        world.sim.run()
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        requests = addressed_to(deliveries, b.node_id, CallRequest)
        assert [getattr(packet.payload, "inner", packet).payload.reply_to
                for packet in requests] == [granted, a.prime]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_first_contact_connects_while_the_prime_is_blocked(
            self, make_world, mode):
        """A host asks a peer it has not granted an address for one from a
        disposable it grants that peer then, so the answer reaches it
        while the prime is blocked."""
        world = make_world(pki=True)
        a = make_host(world, node_id="a", fqdn="alice.home.example", mode=mode)
        b = make_host(world, node_id="b", fqdn="bob.home.example", mode=mode)
        a.dispose_address(a.prime, auto_reactivate=False)
        world.sim.run()
        assert call_once(world, a, b.fqdn) is CallOutcome.CONNECTED
        assert b.responder.granted_total == 1
