import hashlib
import math
import random
from types import SimpleNamespace

import pytest

from dispo6 import distribution
from dispo6.addressing import AddressState, Ipv6Address
from dispo6.crypto import CertificateAuthority, Ed25519Scheme
from dispo6.distribution import (
    AddressRequest,
    AddressResponse,
    DistributionResponder,
    HIP_TTL_S,
    HIP_WINDOW_S,
    HipChallengeMsg,
    HipGate,
    MAX_HIP_DIFFICULTY_S,
    Refusal,
    RequestOutcome,
    _request_bytes,
)
from dispo6.engine import US_PER_DAY, US_PER_SECOND, Packet, SimTime
from dispo6.caller import CallerNode, CallOutcome
from dispo6.mobile_host import MobileHost
from conftest import VISITED_PREFIX
from test_mobile_host import call_once, make_caller, make_host

HOME_PREFIX = 0x20010DB800010000
PEER = Ipv6Address(0x20010DB800CC0000, 9)


def make_responder(pki=False, hip=None, rng_seed=0):
    """A responder on a stand-in host: the identity and address book a
    `MobileHost` would give it, without the network."""
    rng = random.Random(rng_seed)
    scheme = Ed25519Scheme() if pki else None
    ca = CertificateAuthority(scheme, rng) if pki else None
    keys = scheme.generate(rng) if pki else None
    cert = ca.issue("bob.example", keys.public) if pki else None
    pool = iter(Ipv6Address(HOME_PREFIX, 0x1000 + i) for i in range(10_000))
    states: dict[Ipv6Address, AddressState] = {}

    def allocate():
        hoa = next(pool)
        states[hoa] = AddressState.ACTIVE
        return hoa

    owner = SimpleNamespace(scheme=scheme, keys=keys, certificate=cert, ca=ca,
                            require_signed_response=pki,
                            address_states=states,
                            allocate_disposable=allocate)
    responder = DistributionResponder(owner, hip if hip is not None else HipGate())
    return responder, states, (scheme, ca, rng)


def request(fqdn="alice.example", request_id=1, hip_answer=None,
            signer=None):
    req = AddressRequest(requester_fqdn=fqdn, reply_to=PEER,
                         request_id=request_id, hip_answer=hip_answer)
    if signer is not None:
        scheme, ca, rng = signer
        keys = scheme.generate(rng)
        cert = ca.issue(fqdn, keys.public)
        req = AddressRequest(requester_fqdn=fqdn, reply_to=PEER,
                             request_id=request_id,
                             signature=scheme.sign(
                                 keys, _request_bytes(fqdn, PEER, request_id)),
                             certificate=cert, hip_answer=hip_answer)
    return req


def count_encodes(monkeypatch) -> list[bytes]:
    """The domain tag of every `distribution.encode_fields` call from now on."""
    encoded = []
    encode = distribution.encode_fields

    def counting_encode(*fields):
        encoded.append(fields[0])
        return encode(*fields)

    monkeypatch.setattr(distribution, "encode_fields", counting_encode)
    return encoded


class TestResponderGates:
    def test_default_policy_grants(self):
        responder, states, _ = make_responder()
        reply = responder.handle_request(request(), SimTime(0))
        assert isinstance(reply, AddressResponse)
        assert states[reply.granted] is AddressState.ACTIVE

    def test_repeat_request_returns_same_address(self):
        responder, _, _ = make_responder()
        first = responder.handle_request(request(request_id=1), SimTime(0))
        second = responder.handle_request(request(request_id=2), SimTime(1_000_000))
        assert first.granted == second.granted

    def test_distinct_identities_distinct_addresses(self):
        responder, _, _ = make_responder()
        granted = set()
        for i in range(20):
            reply = responder.handle_request(
                request(fqdn=f"peer{i}.example", request_id=i), SimTime(i))
            granted.add(reply.granted)
        assert len(granted) == 20

    def test_blocked_grant_replaced_on_rerequest(self):
        responder, states, _ = make_responder()
        first = responder.handle_request(request(request_id=1), SimTime(0))
        states[first.granted] = AddressState.BLOCKED
        second = responder.handle_request(request(request_id=2), SimTime(1))
        assert second.granted != first.granted

    def test_denied_identity_refused(self):
        responder, _, _ = make_responder()
        responder.denied.add("alice.example")
        reply = responder.handle_request(request(), SimTime(0))
        assert isinstance(reply, Refusal)
        assert responder.notifications == 1  # the user said no; they were asked

    def test_unsigned_request_in_pki_mode_never_reaches_policy(self):
        responder, _, _ = make_responder(pki=True)
        reply = responder.handle_request(request(), SimTime(0))
        assert reply is None
        assert responder.notifications == 0
        assert responder.dropped_bad_signature == 1

    def test_signed_request_in_pki_mode_grants(self):
        responder, _, signer = make_responder(pki=True)
        reply = responder.handle_request(request(signer=signer), SimTime(0))
        assert isinstance(reply, AddressResponse)
        assert reply.signature != b""

    def test_grant_encodes_the_signed_request_once(self, monkeypatch):
        responder, _, signer = make_responder(pki=True)
        req = request(signer=signer)
        digest = hashlib.sha256(_request_bytes(
            req.requester_fqdn, req.reply_to, req.request_id)).digest()
        encoded = count_encodes(monkeypatch)
        reply = responder.handle_request(req, 0)
        assert isinstance(reply, AddressResponse)
        # one for the certificate check and the digest, one for the answer
        assert encoded == [b"hoa-request", b"hoa-response"]
        assert reply.request_digest == digest

    def test_tampered_signature_dropped(self):
        responder, _, signer = make_responder(pki=True)
        req = request(signer=signer)
        bad = AddressRequest(requester_fqdn=req.requester_fqdn,
                             reply_to=req.reply_to,
                             # not what was signed
                             request_id=req.request_id + 1,
                             signature=req.signature,
                             certificate=req.certificate)
        assert responder.handle_request(bad, SimTime(0)) is None

    def test_a_certificate_for_another_name_is_dropped(self):
        responder, _, (scheme, ca, rng) = make_responder(pki=True)
        keys = scheme.generate(rng)
        # a genuine certificate and a good signature, both for mallory
        req = AddressRequest(
            requester_fqdn="alice.example", reply_to=PEER, request_id=1,
            signature=scheme.sign(keys, _request_bytes("alice.example",
                                                       PEER, 1)),
            certificate=ca.issue("mallory.example", keys.public))
        assert responder.handle_request(req, 0) is None
        assert responder.dropped_bad_signature == 1


class TestHipGate:
    def test_slow_rate_unchallenged(self):
        gate = HipGate()
        for hour in range(6):
            assert not gate.requests.observe("alice", SimTime.at(0, hour))

    def test_rate_gate_trips_on_fourth_in_window(self):
        gate = HipGate()
        for i in range(3):
            assert not gate.requests.observe("alice", SimTime.from_seconds(i))
        assert gate.requests.observe("alice", SimTime.from_seconds(3))

    def test_difficulty_doubles_per_violation_window(self):
        gate = HipGate()
        difficulties = []
        for window in range(3):
            base = window * 600.0
            for i in range(10):
                now = SimTime.from_seconds(base + i * 6)
                if gate.requests.observe("alice", now):
                    challenge = gate.issue("alice", now, request_id=i)
            difficulties.append(challenge.difficulty_s)
        assert difficulties == [5.0, 10.0, 20.0]

    def test_difficulty_halves_per_quiet_window(self):
        # 5, 10, 20 in three windows, one window without a challenge
        # halves 20 to 10, and the next violation doubles it back to 20
        gate = HipGate()
        difficulties = [gate.issue("alice", SimTime.from_seconds(window * 600.0),
                                   request_id=window).difficulty_s
                        for window in (0, 1, 2, 4)]
        assert difficulties == [5.0, 10.0, 20.0, 20.0]

    def test_source_violating_for_days_is_capped_in_fixed_state(self):
        # once a minute for 8 days: 1,152 windows in violation, past the
        # 1,024 doublings a float holds
        gate = HipGate()
        for minute in range(8 * 24 * 60):
            now = SimTime.from_seconds(60 * minute)
            if gate.requests.observe("bot", now):
                challenge = gate.issue("bot", now, request_id=minute)
            assert gate.requests._windows["bot"].total <= 11
            assert len(gate._violations) <= 1
        assert challenge.difficulty_s == MAX_HIP_DIFFICULTY_S
        assert gate._violations["bot"] == (
            minute // 10, MAX_HIP_DIFFICULTY_S)

    def test_history_forgets_sources_gone_quiet(self):
        # 10^5 identities, one request each, 0.1 s apart: ~17 windows; a
        # regular requesting all along stays, and must not pin the others
        gate = HipGate()
        per_window = round(HIP_WINDOW_S / 0.1) + 1
        for i in range(100_000):
            now = SimTime(i * 100_000)
            if i % 1000 == 0:
                gate.requests.observe("regular", now)
            gate.requests.observe(f"id{i}", now)
            assert len(gate.requests._windows) <= per_window + 1
        assert len(gate.requests._windows) == per_window + 1

    def test_violations_forget_sources_gone_quiet(self):
        # 10^5 identities, one a second, each breaking the rate once; ten
        # windows' worth of them is a generous bound
        gate = HipGate()
        for i in range(100_000):
            source, now_us = f"id{i}", i * 1_000_000
            for _ in range(4):
                required = gate.requests.observe(source, now_us)
            if required:
                gate.issue(source, now_us, request_id=i)
        assert len(gate._violations) <= 6_000

    def test_forgetting_changes_no_challenge(self):
        # against a recount of every request inside the rolling window
        gate = HipGate()
        rng = random.Random(11)
        seen: dict[str, list[int]] = {}
        now_us = 0
        for _ in range(5_000):
            # bursts, a steady trickle and long silences
            mean_gap_s = rng.choice((10.0, 100.0, 1000.0))
            now_us += round(rng.expovariate(1 / mean_gap_s) * 1e6)
            source = f"s{rng.randrange(4)}"
            seen.setdefault(source, []).append(now_us)
            recent = sum(t >= now_us - 600_000_000 for t in seen[source])
            assert gate.requests.observe(source, SimTime(now_us)) == (recent > 3)

    def test_forgetting_changes_no_difficulty(self):
        # against a reference that keeps every source's last window and
        # difficulty; bursts and long silences, sources mixed
        gate, kept = HipGate(), {}
        rng = random.Random(12)
        now_us = 0
        for i in range(5_000):
            now_us += round(rng.expovariate(1 / rng.choice((30.0, 3000.0))) * 1e6)
            source = f"s{rng.randrange(6)}"
            window = now_us // 600_000_000
            last, difficulty = kept.get(source, (window, 5.0))
            if window != last:
                difficulty /= 2 ** (window - last - 1)
                difficulty = 5.0 if difficulty < 5.0 else min(2 * difficulty, 86_400.0)
            kept[source] = (window, difficulty)
            issued = gate.issue(source, SimTime(now_us), request_id=i)
            assert issued.difficulty_s == difficulty
        assert len(gate._violations) < len(kept)

    def test_verify_single_use_and_replay(self):
        gate = HipGate()
        challenge = gate.issue("alice", SimTime(0), request_id=1)
        answer = challenge.challenge_id
        assert gate.verify(answer, SimTime.from_seconds(10))
        assert not gate.verify(answer, SimTime.from_seconds(11))  # replay

    def test_an_id_never_issued_fails(self):
        gate = HipGate()
        challenge = gate.issue("alice", SimTime(0), request_id=1)
        assert not gate.verify(challenge.challenge_id + 1,
                               SimTime.from_seconds(1))
        # and leaves the issued one outstanding
        assert gate.verify(challenge.challenge_id, SimTime.from_seconds(2))

    def test_expired_challenge_fails(self):
        gate = HipGate()
        challenge = gate.issue("alice", SimTime(0), request_id=1)
        assert not gate.verify(challenge.challenge_id,
                               SimTime.from_seconds(301))

    def test_unanswered_challenges_expire(self):
        gate = HipGate()
        for minute in range(10_000):
            gate.issue("bot", SimTime.from_seconds(60 * minute), request_id=minute)
            assert len(gate._outstanding) <= HIP_TTL_S / 60 + 1

    def test_late_answer_to_dropped_challenge_fails_once(self):
        gate = HipGate()
        late = gate.issue("bot", SimTime(0), request_id=1)
        live = gate.issue("bot", SimTime.from_seconds(301), request_id=2)
        assert late.challenge_id not in gate._outstanding
        assert not gate.verify(late.challenge_id, SimTime.from_seconds(302))
        assert not gate.verify(late.challenge_id, SimTime.from_seconds(303))
        # the live challenge beside it passes, and only once
        assert gate.verify(live.challenge_id, SimTime.from_seconds(304))
        assert not gate.verify(live.challenge_id, SimTime.from_seconds(305))


class TestGateOrdering:
    def test_no_notification_without_pass_while_gate_active(self):
        gate = HipGate()
        responder, _, _ = make_responder(hip=gate)
        notified_without_pass = 0
        # 10 requests/minute from one identity, never answering challenges
        for i in range(10):
            now = SimTime.from_seconds(i * 6)
            before = responder.notifications
            reply = responder.handle_request(
                request(request_id=i), now)
            gated = gate.requests._windows["alice.example"].total > 3
            if gated and responder.notifications > before:
                notified_without_pass += 1
            if gated:
                assert isinstance(reply, HipChallengeMsg)
        assert notified_without_pass == 0
        assert responder.notifications == 3  # only the pre-gate requests

    def test_correct_answer_yields_exactly_one_notification(self):
        responder, _, _ = make_responder()
        for i in range(3):
            responder.handle_request(request(request_id=i), SimTime(i))
        reply = responder.handle_request(request(request_id=3), SimTime(3))
        assert isinstance(reply, HipChallengeMsg)
        notifications_before = responder.notifications
        granted = responder.handle_request(
            request(request_id=3, hip_answer=reply.challenge_id),
            SimTime.from_seconds(2))
        assert isinstance(granted, AddressResponse)
        assert responder.notifications == notifications_before + 1


class TestEngineHandshake:
    def test_fresh_peer_pki_grant_verified(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        assert len(results) == 1
        assert results[0].outcome is RequestOutcome.GRANTED
        assert results[0].granted.prefix == HOME_PREFIX

    def test_session_encodes_the_signed_request_once(self, make_world,
                                                     monkeypatch):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        encoded = count_encodes(monkeypatch)
        results = []
        caller.request_address(host.fqdn, results.append)
        # one encoding is signed and digested for matching the grant
        assert encoded == [b"hoa-request"]
        monkeypatch.undo()
        world.sim.run()
        assert results[0].outcome is RequestOutcome.GRANTED

    def test_repeated_engine_request_same_address(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        assert results[0].granted == results[1].granted

    def test_request_to_blocked_prime_times_out(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        host.dispose_address(host.prime, auto_reactivate=False)
        world.sim.run()
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        assert results[0].outcome is RequestOutcome.TIMEOUT

    def test_tampered_response_aborts_no_call(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        original = caller.on_packet

        def corrupt(packet):
            payload = packet.payload
            if isinstance(payload, AddressResponse):
                payload = AddressResponse(
                    granted=payload.granted,
                    request_digest=payload.request_digest,
                    request_id=payload.request_id,
                    signature=b"\x00" * len(payload.signature),
                    certificate=payload.certificate)
                packet = type(packet)(src=packet.src, dst=packet.dst,
                                      payload=payload)
            original(packet)

        caller.on_packet = corrupt
        outcome = call_once(world, caller, host.fqdn)
        assert outcome is CallOutcome.FAILED
        assert host.counters.calls_received == 0  # no call was placed

    def test_grant_for_another_request_is_ignored(self, make_world):
        """A grant whose digest is not this request's leaves the session
        pending and the book empty; the deadline then ends it."""
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        original = caller.on_packet

        def misdirect(packet):
            if isinstance(packet.payload, AddressResponse):
                packet = packet._replace(payload=packet.payload._replace(
                    request_digest=hashlib.sha256(b"another").digest()))
            original(packet)

        caller.on_packet = misdirect
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run_until(SimTime.from_seconds(1))
        assert host.responder.granted_total == 1  # the grant went out
        assert results == [] and len(caller._sessions) == 1
        assert not caller.has_address_for(host.fqdn)
        world.sim.run()
        assert [r.outcome for r in results] == [RequestOutcome.TIMEOUT]
        assert caller._sessions == {}
        assert not caller.has_address_for(host.fqdn)

    def test_an_unverifying_caller_is_granted(self, make_world):
        # a caller that does not require signed responses takes the grant
        world = make_world(pki=True)
        host = make_host(world)
        fqdn = "lax.peers.example"
        keys = world.scheme.generate(world.sim.rng)
        caller = CallerNode(world.sim, "lax", fqdn, PEER, world.names,
                            scheme=world.scheme, keys=keys,
                            certificate=world.ca.issue(fqdn, keys.public))
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        assert [r.outcome for r in results] == [RequestOutcome.GRANTED]
        assert caller.has_address_for(host.fqdn)

    def test_a_grant_certified_for_another_name_is_refused(self,
                                                           make_world):
        world = make_world(pki=True)
        host = make_host(world)
        host.certificate = world.ca.issue("other.home.example",
                                          host.keys.public)
        caller = make_caller(world)
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        assert host.responder.granted_total == 1  # the grant went out
        assert [r.outcome for r in results] == [RequestOutcome.BAD_SIGNATURE]
        assert not caller.has_address_for(host.fqdn)

    def test_bot_that_cannot_solve_gets_nothing(self, make_world):
        world = make_world()
        host = make_host(world)
        bot = make_caller(world, i=3, solve_hip=False)
        results = []
        notifications_before = host.responder.notifications
        for i in range(8):
            bot.request_address(host.fqdn, results.append)
            world.sim.run()
        granted = [r for r in results if r.outcome is RequestOutcome.GRANTED]
        timeouts = [r for r in results if r.outcome is RequestOutcome.TIMEOUT]
        assert len(granted) == 3  # before the rate gate trips
        assert len(timeouts) == 5
        assert host.responder.notifications == notifications_before + 3

    def test_patient_human_solves_and_is_granted(self, make_world):
        world = make_world()
        host = make_host(world)
        human = make_caller(world, i=4, solve_hip=True)
        results = []
        for i in range(5):
            human.request_address(host.fqdn, results.append)
            world.sim.run()
        assert all(r.outcome is RequestOutcome.GRANTED for r in results)
        assert host.responder.hip.challenges_issued >= 2

    def test_solved_challenge_keeps_its_signature(self, make_world,
                                                  monkeypatch):
        world = make_world(pki=True)
        host = make_host(world)
        human = make_caller(world, i=4, solve_hip=True)
        signatures = []
        sign = Ed25519Scheme.sign

        def counting_sign(scheme, keys, message):
            signatures.append(sign(scheme, keys, message))
            return signatures[-1]

        monkeypatch.setattr(Ed25519Scheme, "sign", counting_sign)
        results = []
        for i in range(5):
            human.request_address(host.fqdn, results.append)
            world.sim.run()
        assert all(r.outcome is RequestOutcome.GRANTED for r in results)
        # the answered requests passed the signature gate on their first
        # signature: one per request and one per grant, nothing re-signed
        assert host.responder.hip.challenges_issued == 2
        assert host.responder.dropped_bad_signature == 0
        assert len(signatures) == 10


FORGED_REASON = (
    "ROADMAP item 16: challenges and refusals are unsigned, so the "
    "requester takes them from any source that guesses the request id")


class TestForgedReplies:
    """A requester takes a challenge or a refusal only from the host it
    asked. The simulator lets a node name any source, so each forgery
    names the prime itself; request ids count up from 1."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=FORGED_REASON)
    def test_a_forged_refusal_does_not_end_the_call(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        outcomes = []
        caller.place_call(host.fqdn, outcomes.append)
        world.sim.send(Packet(src=host.prime, dst=caller.address,
                              payload=Refusal(request_id=1)))
        world.sim.run()
        assert outcomes == [CallOutcome.CONNECTED]

    def test_a_forged_challenge_does_not_outlive_the_deadline(self,
                                                              make_world):
        world = make_world(pki=True)
        host = make_host(world)
        caller = make_caller(world)
        host.dispose_address(host.prime, auto_reactivate=False)
        world.sim.run()
        outcomes = []
        caller.place_call(host.fqdn, outcomes.append)
        world.sim.send(Packet(src=host.prime, dst=caller.address,
                              payload=HipChallengeMsg(challenge_id=1,
                                                      difficulty_s=1e9,
                                                      request_id=1)))
        world.sim.run_until(world.sim.now_us + 30 * US_PER_DAY)
        assert outcomes == [CallOutcome.REJECTED_PRIME_BLOCKED]
        assert caller._sessions == {}

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=FORGED_REASON)
    def test_a_forged_challenge_in_range_keeps_the_deadline(self, make_world):
        # the gate could issue this difficulty, so the session takes it
        # and waits a day of human work in place of its 3 s deadline
        outcomes, after_s, _ = place_call_with_a_forged_challenge(
            make_world(pki=True), MAX_HIP_DIFFICULTY_S)
        assert outcomes == [CallOutcome.REJECTED_PRIME_BLOCKED]
        assert after_s == [distribution.REQUEST_TIMEOUT_S]


class TestTrustWithoutACa:
    """A node that requires signatures but has no CA to check them with
    trusts nothing: the rule is one for both ends of the handshake."""

    def test_a_host_without_a_ca_drops_every_request(self, make_world):
        world = make_world(pki=True)
        host = MobileHost(world.sim, "host", "alice.home.example", world.names,
                          scheme=world.scheme, pki_required=True)
        host.attach(world.agent, VISITED_PREFIX)
        caller = make_caller(world)
        results = []
        for _ in range(3):
            caller.request_address(host.fqdn, results.append)
            world.sim.run()
        assert [r.outcome for r in results] == [RequestOutcome.TIMEOUT] * 3
        assert host.responder.dropped_bad_signature == 3
        assert host.responder.notifications == 0

    def test_a_caller_without_a_ca_takes_no_signed_grant(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        fqdn = "strict.peers.example"
        keys = world.scheme.generate(world.sim.rng)
        caller = CallerNode(world.sim, "strict", fqdn, PEER, world.names,
                            scheme=world.scheme, keys=keys,
                            certificate=world.ca.issue(fqdn, keys.public),
                            require_signed_response=True)
        results = []
        caller.request_address(host.fqdn, results.append)
        world.sim.run()
        assert host.responder.granted_total == 1  # signed, and sent
        assert [r.outcome for r in results] == [RequestOutcome.BAD_SIGNATURE]
        assert call_once(world, caller, host.fqdn) is CallOutcome.FAILED


def place_call_with_a_forged_challenge(world, difficulty_s: float):
    """A call to a host whose prime is blocked, with a challenge of
    `difficulty_s` forged from the prime; (outcomes, each outcome's
    time after the call was placed, in s, the caller) once the run ends
    or 30 days have passed."""
    host = make_host(world)
    caller = make_caller(world)
    host.dispose_address(host.prime, auto_reactivate=False)
    world.sim.run()
    placed_us = world.sim.now_us
    outcomes, after_s = [], []

    def resolved(outcome):
        outcomes.append(outcome)
        after_s.append((world.sim.now_us - placed_us) / US_PER_SECOND)

    caller.place_call(host.fqdn, resolved)
    world.sim.send(Packet(src=host.prime, dst=caller.address,
                          payload=HipChallengeMsg(challenge_id=1,
                                                  difficulty_s=difficulty_s,
                                                  request_id=1)))
    world.sim.run_until(placed_us + 30 * US_PER_DAY)
    return outcomes, after_s, caller


@pytest.mark.parametrize("difficulty_s", [-1.0, math.nan, math.inf, 1e9])
def test_a_challenge_the_gate_cannot_issue_keeps_the_deadline(
        make_world, difficulty_s):
    # taken, each of these once crashed the run or stalled the call
    outcomes, after_s, caller = place_call_with_a_forged_challenge(
        make_world(pki=True), difficulty_s)
    assert outcomes == [CallOutcome.REJECTED_PRIME_BLOCKED]
    assert after_s == [distribution.REQUEST_TIMEOUT_S]
    assert caller._sessions == {}
