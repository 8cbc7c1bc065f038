import random
from types import SimpleNamespace

import pytest

from dispo6 import distribution
from dispo6.addressing import AddressState, Ipv6Address
from dispo6.crypto import CertificateAuthority, Ed25519Scheme
from dispo6.distribution import (
    AddressRequest,
    AddressResponse,
    ChallengeAction,
    DistributionResponder,
    GrantAction,
    HipAnswer,
    HipGate,
    MAX_HIP_DIFFICULTY_S,
    RefuseAction,
    RequestOutcome,
)
from dispo6.engine import SimTime
from dispo6.caller import CallOutcome
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
    req = AddressRequest(requester_name=fqdn.split(".")[0],
                         requester_fqdn=fqdn, extra_info="",
                         reply_to=PEER, request_id=request_id,
                         hip_answer=hip_answer)
    if signer is not None:
        scheme, ca, rng = signer
        keys = scheme.generate(rng)
        cert = ca.issue(fqdn, keys.public)
        req = AddressRequest(requester_name=req.requester_name,
                             requester_fqdn=fqdn, extra_info="",
                             reply_to=PEER, request_id=request_id,
                             signature=scheme.sign(keys, req.signed_bytes()),
                             certificate=cert, hip_answer=hip_answer)
    return req


class TestResponderGates:
    def test_default_policy_grants(self):
        responder, states, _ = make_responder()
        action = responder.handle_request(request(), SimTime(0))
        assert isinstance(action, GrantAction)
        assert states[action.response.granted] is AddressState.ACTIVE

    def test_repeat_request_returns_same_address(self):
        responder, _, _ = make_responder()
        first = responder.handle_request(request(request_id=1), SimTime(0))
        second = responder.handle_request(request(request_id=2), SimTime(1_000_000))
        assert first.response.granted == second.response.granted

    def test_distinct_identities_distinct_addresses(self):
        responder, _, _ = make_responder()
        granted = set()
        for i in range(20):
            action = responder.handle_request(
                request(fqdn=f"peer{i}.example", request_id=i), SimTime(i))
            granted.add(action.response.granted)
        assert len(granted) == 20

    def test_blocked_grant_replaced_on_rerequest(self):
        responder, states, _ = make_responder()
        first = responder.handle_request(request(request_id=1), SimTime(0))
        states[first.response.granted] = AddressState.BLOCKED
        second = responder.handle_request(request(request_id=2), SimTime(1))
        assert second.response.granted != first.response.granted

    def test_denied_identity_refused(self):
        responder, _, _ = make_responder()
        responder.denied.add("alice.example")
        action = responder.handle_request(request(), SimTime(0))
        assert isinstance(action, RefuseAction)
        assert responder.notifications == 1  # the user said no; they were asked

    def test_unsigned_request_in_pki_mode_never_reaches_policy(self):
        responder, _, _ = make_responder(pki=True)
        action = responder.handle_request(request(), SimTime(0))
        assert action is None
        assert responder.notifications == 0
        assert responder.dropped_bad_signature == 1

    def test_signed_request_in_pki_mode_grants(self):
        responder, _, signer = make_responder(pki=True)
        action = responder.handle_request(request(signer=signer), SimTime(0))
        assert isinstance(action, GrantAction)
        assert action.response.signature != b""

    def test_grant_encodes_the_signed_request_once(self, monkeypatch):
        responder, _, signer = make_responder(pki=True)
        req = request(signer=signer)
        digest = req.digest()
        encoded = []
        encode = distribution.encode_fields

        def counting_encode(*fields):
            encoded.append(fields[0])
            return encode(*fields)

        monkeypatch.setattr(distribution, "encode_fields", counting_encode)
        action = responder.handle_request(req, 0)
        assert isinstance(action, GrantAction)
        # one for the certificate check and the digest, one for the answer
        assert encoded == [b"hoa-request", b"hoa-response"]
        assert action.response.request_digest == digest

    def test_tampered_signature_dropped(self):
        responder, _, signer = make_responder(pki=True)
        req = request(signer=signer)
        bad = AddressRequest(requester_name=req.requester_name,
                             requester_fqdn=req.requester_fqdn,
                             extra_info="tampered",  # signature no longer covers
                             reply_to=req.reply_to,
                             request_id=req.request_id,
                             signature=req.signature,
                             certificate=req.certificate)
        assert responder.handle_request(bad, SimTime(0)) is None


class TestHipGate:
    def gate(self):
        return HipGate(rate_threshold=3, window_s=600.0,
                       base_difficulty_s=5.0, ttl_s=300.0)

    def test_slow_rate_unchallenged(self):
        gate = self.gate()
        for hour in range(6):
            now = SimTime.at(0, hour)
            gate.observe("alice", now)
            assert not gate.challenge_required("alice")

    def test_rate_gate_trips_on_fourth_in_window(self):
        gate = self.gate()
        for i in range(3):
            gate.observe("alice", SimTime.from_seconds(i))
            assert not gate.challenge_required("alice")
        gate.observe("alice", SimTime.from_seconds(3))
        assert gate.challenge_required("alice")

    def test_difficulty_doubles_per_violation_window(self):
        gate = self.gate()
        difficulties = []
        for window in range(3):
            base = window * 600.0
            for i in range(10):
                now = SimTime.from_seconds(base + i * 6)
                gate.observe("alice", now)
                if gate.challenge_required("alice"):
                    challenge = gate.issue("alice", now, request_id=i)
            difficulties.append(challenge.difficulty_s)
        assert difficulties == [5.0, 10.0, 20.0]

    def test_source_violating_for_days_is_capped_in_fixed_state(self):
        # once a minute for 8 days: 1,152 windows in violation, past the
        # 1,024 doublings a float holds
        gate = self.gate()
        for minute in range(8 * 24 * 60):
            now = SimTime.from_seconds(60 * minute)
            gate.observe("bot", now)
            if gate.challenge_required("bot"):
                challenge = gate.issue("bot", now, request_id=minute)
            assert len(gate._history["bot"]) <= 11
            assert len(gate._violations) <= 1
        assert challenge.difficulty_s == MAX_HIP_DIFFICULTY_S
        assert gate._violations["bot"] == (
            minute // 10, MAX_HIP_DIFFICULTY_S)

    def test_history_forgets_sources_gone_quiet(self):
        # 10^5 identities, one request each, 0.1 s apart: ~17 windows; a
        # regular requesting all along stays, and must not pin the others
        gate = self.gate()
        per_window = round(gate.window_s / 0.1) + 1
        for i in range(100_000):
            now = SimTime(i * 100_000)
            if i % 1000 == 0:
                gate.observe("regular", now)
            gate.observe(f"id{i}", now)
            assert len(gate._history) <= per_window + 1
        assert len(gate._history) == per_window + 1

    def test_forgetting_changes_no_challenge(self):
        # against a recount of every request inside the rolling window
        gate = self.gate()
        rng = random.Random(11)
        seen: dict[str, list[int]] = {}
        now_us = 0
        for _ in range(5_000):
            # bursts, a steady trickle and long silences
            mean_gap_s = rng.choice((10.0, 100.0, 1000.0))
            now_us += round(rng.expovariate(1 / mean_gap_s) * 1e6)
            source = f"s{rng.randrange(4)}"
            gate.observe(source, SimTime(now_us))
            seen.setdefault(source, []).append(now_us)
            recent = sum(t >= now_us - 600_000_000 for t in seen[source])
            assert gate.challenge_required(source) == (recent > 3)

    def test_verify_single_use_and_replay(self):
        gate = self.gate()
        challenge = gate.issue("alice", SimTime(0), request_id=1)
        answer = HipAnswer(challenge.challenge_id,
                           HipGate.solution(challenge.challenge_id))
        assert gate.verify(answer, SimTime.from_seconds(10))
        assert not gate.verify(answer, SimTime.from_seconds(11))  # replay

    def test_wrong_answer_fails(self):
        gate = self.gate()
        challenge = gate.issue("alice", SimTime(0), request_id=1)
        assert not gate.verify(HipAnswer(challenge.challenge_id, b"nope"),
                               SimTime.from_seconds(1))

    def test_expired_challenge_fails(self):
        gate = self.gate()
        challenge = gate.issue("alice", SimTime(0), request_id=1)
        answer = HipAnswer(challenge.challenge_id,
                           HipGate.solution(challenge.challenge_id))
        assert not gate.verify(answer, SimTime.from_seconds(301))

    def test_unanswered_challenges_expire(self):
        gate = self.gate()
        for minute in range(10_000):
            gate.issue("bot", SimTime.from_seconds(60 * minute), request_id=minute)
            assert len(gate._outstanding) <= gate.ttl_s / 60 + 1

    def test_late_answer_to_dropped_challenge_fails_once(self):
        gate = self.gate()
        late = gate.issue("bot", SimTime(0), request_id=1)
        gate.issue("bot", SimTime.from_seconds(301), request_id=2)
        assert late.challenge_id not in gate._outstanding
        answer = HipAnswer(late.challenge_id, HipGate.solution(late.challenge_id))
        assert not gate.verify(answer, SimTime.from_seconds(302))
        assert (gate.failures, gate.passes) == (1, 0)


class TestGateOrdering:
    def test_no_notification_without_pass_while_gate_active(self):
        gate = HipGate(rate_threshold=3, window_s=600.0)
        responder, _, _ = make_responder(hip=gate)
        notified_without_pass = 0
        # 10 requests/minute from one identity, never answering challenges
        for i in range(10):
            now = SimTime.from_seconds(i * 6)
            before = responder.notifications
            action = responder.handle_request(
                request(request_id=i), now)
            gated = gate.challenge_required("alice.example")
            if gated and responder.notifications > before:
                notified_without_pass += 1
            if gated:
                assert isinstance(action, ChallengeAction)
        assert notified_without_pass == 0
        assert responder.notifications == 3  # only the pre-gate requests

    def test_correct_answer_yields_exactly_one_notification(self):
        gate = HipGate(rate_threshold=1, window_s=600.0)
        responder, _, _ = make_responder(hip=gate)
        responder.handle_request(request(request_id=1), SimTime(0))
        action = responder.handle_request(request(request_id=2), SimTime(1))
        assert isinstance(action, ChallengeAction)
        notifications_before = responder.notifications
        answer = HipAnswer(action.challenge.challenge_id,
                           HipGate.solution(action.challenge.challenge_id))
        granted = responder.handle_request(
            request(request_id=2, hip_answer=answer), SimTime.from_seconds(2))
        assert isinstance(granted, GrantAction)
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
        assert results[0].responder_key == host.keys.public

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
                                      payload=payload,
                                      size_bytes=packet.size_bytes)
            original(packet)

        caller.on_packet = corrupt
        outcome = call_once(world, caller, host.fqdn)
        assert outcome is CallOutcome.FAILED
        assert host.counters.calls_received == 0  # no call was placed

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
        assert host.responder.hip.passes >= 2

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
        assert host.responder.hip.passes == 2
        assert host.responder.dropped_bad_signature == 0
        assert len(signatures) == 10
