"""Disposable-address request handshake and its anti-abuse gates.

A caller asks the target's prime address for a disposable home address.
Requests and replies are signed when a PKI is configured. Rapid requests
from one source identity hit a human-interaction-proof gate (abstract
puzzle with a cost in simulated seconds of human work, difficulty
doubling for every further window in violation), and the target user is
only notified of requests that already passed every gate.

Each side says each thing once. Each end has one identity, its owning
node: the session reads its `CallerNode`, the responder its `MobileHost`,
and neither copies the keys, certificate, CA or signature policy. Both
sides check the peer's certified signature through the one
`CertificateAuthority.certified_key`, and sign by adding the signature
to the message they built; a request re-sent with a HIP answer keeps
its first signature. The responder's `grants` is the host's only record
of which address each peer holds, and its deny list (fed by
`MobileHost.spit_block`) is the one permission policy.
"""

import hashlib
import itertools
from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from .addressing import AddressState, Ipv6Address
from .crypto import Certificate, encode_fields
from .engine import US_PER_SECOND
from .messages import record

if TYPE_CHECKING:
    from .caller import CallerNode
    from .mobile_host import MobileHost

# seconds a requester waits for any answer before giving up
REQUEST_TIMEOUT_S = 3.0
# a day of human work: far past any challenge's lifetime, and it keeps a
# source that violates for months from doubling past a float's range
MAX_HIP_DIFFICULTY_S = 86_400.0


@record
class HipAnswer(NamedTuple):
    challenge_id: int
    answer: bytes


@record
class AddressRequest(NamedTuple):
    """Signed ask for a disposable home address, sent to a prime address."""

    requester_name: str
    requester_fqdn: str
    extra_info: str
    reply_to: Ipv6Address
    request_id: int
    signature: bytes = b""
    certificate: Certificate | None = None
    hip_answer: HipAnswer | None = None

    def signed_bytes(self) -> bytes:
        # The HIP answer is excluded so a challenged request can be
        # re-presented with its answer under the original signature.
        return encode_fields(b"hoa-request",
                             self.requester_name.encode(),
                             self.requester_fqdn.encode(),
                             self.extra_info.encode(),
                             self.reply_to.packed,
                             self.request_id.to_bytes(8, "big"))

    def digest(self) -> bytes:
        return hashlib.sha256(self.signed_bytes()).digest()


@record
class AddressResponse(NamedTuple):
    """Grant of a disposable address, bound to the request it answers."""

    granted: Ipv6Address
    request_digest: bytes
    request_id: int
    signature: bytes = b""
    certificate: Certificate | None = None

    def signed_bytes(self) -> bytes:
        return encode_fields(b"hoa-response", self.granted.packed,
                             self.request_digest)


@record
class HipChallengeMsg(NamedTuple):
    challenge_id: int
    difficulty_s: float
    request_id: int


@record
class Refusal(NamedTuple):
    request_id: int
    reason: str


class HipGate:
    """Per-source request-rate gate issuing single-use, expiring challenges.

    More than `rate_threshold` requests from one source identity inside a
    rolling `window_s` triggers challenges. Difficulty starts at
    `base_difficulty_s` and doubles for each further fixed window in which
    the source is still violating, up to `MAX_HIP_DIFFICULTY_S`.

    Request histories are kept in the order their sources were last
    observed, and a source whose newest request has left the window is
    forgotten: its next request would have trimmed the history to nothing
    anyway, so no challenge changes. `observe` runs at the simulator's
    clock, which never goes back, so the stale histories are at the front.
    """

    def __init__(self, rate_threshold: int = 3, window_s: float = 600.0,
                 base_difficulty_s: float = 5.0, ttl_s: float = 300.0):
        self.rate_threshold = rate_threshold
        self.window_s = window_s
        self.base_difficulty_s = base_difficulty_s
        self.ttl_s = ttl_s
        self._window_us = round(window_s * US_PER_SECOND)
        self._ttl_us = round(ttl_s * US_PER_SECOND)
        self._history: dict[str, deque[int]] = {}
        # source -> (last fixed window it violated in, current difficulty)
        self._violations: dict[str, tuple[int, float]] = {}
        self._outstanding: dict[int, int] = {}  # challenge id -> issued_us
        self._ids = itertools.count(1)
        self.challenges_issued = 0
        self.passes = 0
        self.failures = 0

    @staticmethod
    def solution(challenge_id: int) -> bytes:
        """The puzzle is abstract: producing this costs human seconds, checking is free."""
        return hashlib.sha256(b"hip:" + challenge_id.to_bytes(8, "big")).digest()[:8]

    def observe(self, source: str, now_us: int) -> None:
        cutoff = now_us - self._window_us
        history = self._history
        events = history.pop(source, None)
        if events is None:
            events = deque()
        history[source] = events  # moved to the end as the latest observed
        events.append(now_us)
        while events[0] < cutoff:
            events.popleft()
        while True:  # ends at the latest, `source` itself
            oldest = next(iter(history))
            if history[oldest][-1] >= cutoff:
                break
            del history[oldest]

    def challenge_required(self, source: str) -> bool:
        events = self._history.get(source)
        return bool(events) and len(events) > self.rate_threshold

    def issue(self, source: str, now_us: int, request_id: int) -> HipChallengeMsg:
        # challenges are issued in time order, so a window other than the
        # last one is a further one
        window = now_us // self._window_us
        last, difficulty = self._violations.get(
            source, (window, self.base_difficulty_s))
        if window != last:
            difficulty = min(2.0 * difficulty, MAX_HIP_DIFFICULTY_S)
        self._violations[source] = (window, difficulty)
        # challenges are held in issue order: drop the expired ones from the
        # front, or a source that never answers would grow the map forever;
        # a late answer to one still fails once, as unknown
        outstanding = self._outstanding
        expired_before = now_us - self._ttl_us
        while outstanding:
            oldest = next(iter(outstanding))
            if outstanding[oldest] >= expired_before:
                break
            del outstanding[oldest]
        challenge_id = next(self._ids)
        outstanding[challenge_id] = now_us
        self.challenges_issued += 1
        return HipChallengeMsg(challenge_id=challenge_id,
                               difficulty_s=difficulty, request_id=request_id)

    def verify(self, answer: HipAnswer, now_us: int) -> bool:
        issued_us = self._outstanding.pop(answer.challenge_id, None)  # single use
        if issued_us is None:
            self.failures += 1
            return False
        if now_us - issued_us > self._ttl_us:
            self.failures += 1
            return False
        if answer.answer != self.solution(answer.challenge_id):
            self.failures += 1
            return False
        self.passes += 1
        return True


@record
class GrantAction(NamedTuple):
    response: AddressResponse


@record
class ChallengeAction(NamedTuple):
    challenge: HipChallengeMsg


@record
class RefuseAction(NamedTuple):
    refusal: Refusal


ResponderAction = GrantAction | ChallengeAction | RefuseAction | None


class DistributionResponder:
    """Target-side handler: signature gate, HIP gate, deny list, grant.

    Keys, certificate, CA, signature policy and address states are read
    from the owning `MobileHost`. The deny list, which `spit_block` fills,
    is the one permission policy. Grants are injective per requester
    identity: each verified identity keeps getting its own address back
    while that address is usable, and never one granted to someone else.
    `grants` is the host's one record of which address each peer holds.
    """

    def __init__(self, owner: "MobileHost", hip: HipGate):
        self.owner = owner
        self.hip = hip
        self.grants: dict[str, Ipv6Address] = {}
        self.denied: set[str] = set()
        self.notifications = 0  # requests the user was told of
        self.dropped_bad_signature = 0
        self.refusals = 0
        self.granted_total = 0

    def handle_request(self, request: AddressRequest, now_us: int) -> ResponderAction:
        owner, fqdn = self.owner, request.requester_fqdn
        signed = request.signed_bytes()
        # a host that wants signed answers also wants signed requests
        if owner.require_signed_response and (
                owner.ca is None or owner.ca.certified_key(
                    request.certificate, fqdn, signed,
                    request.signature) is None):
            self.dropped_bad_signature += 1
            return None
        hip = self.hip
        hip.observe(fqdn, now_us)
        if hip.challenge_required(fqdn) and (
                request.hip_answer is None or not hip.verify(request.hip_answer, now_us)):
            return ChallengeAction(hip.issue(fqdn, now_us, request.request_id))
        # Every gate passed: only now does the user see anything.
        self.notifications += 1
        hoa = self.grant_for(fqdn)
        if hoa is None:
            self.refusals += 1
            return RefuseAction(Refusal(request_id=request.request_id,
                                        reason="permission denied"))
        response = AddressResponse(granted=hoa,
                                   request_digest=hashlib.sha256(signed).digest(),
                                   request_id=request.request_id)
        if owner.scheme is not None and owner.keys is not None:
            response = response._replace(
                certificate=owner.certificate,
                signature=owner.scheme.sign(owner.keys, response.signed_bytes()))
        return GrantAction(response)

    def grant_for(self, peer_fqdn: str) -> Ipv6Address | None:
        """Every grant: None for a denied peer, else the same address back
        while it is usable and a fresh one otherwise."""
        if peer_fqdn in self.denied:
            return None
        owner = self.owner
        hoa = self.grants.get(peer_fqdn)
        if hoa is None or owner.address_states.get(hoa) is not AddressState.ACTIVE:
            hoa = owner.allocate_disposable()
            self.grants[peer_fqdn] = hoa
        self.granted_total += 1
        return hoa


class RequestOutcome(Enum):
    GRANTED = "granted"
    REFUSED = "refused"
    TIMEOUT = "timeout"
    BAD_SIGNATURE = "bad_signature"


@record
class RequestResult(NamedTuple):
    outcome: RequestOutcome
    granted: Ipv6Address | None = None
    responder_key: bytes | None = None


@record
class SessionTimer(NamedTuple):
    """Timer token owned by an InitiatorSession; `gen` guards staleness."""

    request_id: int
    kind: str  # "deadline" or "solve"
    gen: int
    challenge: HipChallengeMsg | None = None


class InitiatorSession:
    """Caller-side handshake state machine, advanced by engine events.

    Everything about the requester (identity, address, keys, certificate,
    CA, response policy, whether it solves HIP puzzles) is read from the
    owning node. The owner forwards matching packets via on_message() and
    timer tokens via on_timer(). A HIP challenge is answered after its
    difficulty in simulated seconds (the human at the keyboard), unless
    the owner's solve_hip is off, which models a bot that cannot solve
    puzzles. The answer rides on the request already signed: the
    signature does not cover it.
    """

    def __init__(self, owner: "CallerNode", target_fqdn: str, request_id: int,
                 on_done: Callable[[RequestResult], None],
                 send_request: Callable[[AddressRequest], None]):
        self.owner = owner
        self.target_fqdn = target_fqdn
        self.request_id = request_id
        self.on_done = on_done
        self.send_request = send_request
        self.done = False
        self._gen = 0
        request = AddressRequest(requester_name=owner.fqdn.split(".")[0],
                                 requester_fqdn=owner.fqdn, extra_info="",
                                 reply_to=owner.address, request_id=request_id)
        if owner.scheme is not None and owner.keys is not None:
            request = request._replace(
                certificate=owner.certificate,
                signature=owner.scheme.sign(owner.keys, request.signed_bytes()))
        self._base_request = request
        # the signed bytes leave the HIP answer out, so re-sends share it
        self._request_digest = request.digest()

    def start(self) -> None:
        self.send_request(self._base_request)
        self._arm("deadline")

    def _arm(self, kind: str, delay_s: float | None = None,
             challenge: HipChallengeMsg | None = None) -> None:
        self._gen += 1
        owner = self.owner
        owner.sim.call_in(REQUEST_TIMEOUT_S if delay_s is None else delay_s,
                          owner.node_id,
                          SessionTimer(request_id=self.request_id, kind=kind,
                                       gen=self._gen, challenge=challenge))

    def on_message(self, payload: object) -> None:
        if self.done:
            return
        if isinstance(payload, HipChallengeMsg):
            if not self.owner.solve_hip:
                return  # bot: let the deadline expire
            self._arm("solve", delay_s=payload.difficulty_s, challenge=payload)
            return
        if isinstance(payload, Refusal):
            self._finish(RequestResult(RequestOutcome.REFUSED))
            return
        if isinstance(payload, AddressResponse):
            self._handle_response(payload)

    def on_timer(self, token: SessionTimer) -> None:
        if self.done or token.gen != self._gen:
            return
        if token.kind == "solve":
            challenge = token.challenge
            answer = HipAnswer(challenge_id=challenge.challenge_id,
                               answer=HipGate.solution(challenge.challenge_id))
            self.send_request(self._base_request._replace(hip_answer=answer))
            self._arm("deadline")
            return
        self._finish(RequestResult(RequestOutcome.TIMEOUT))

    def _handle_response(self, response: AddressResponse) -> None:
        if response.request_digest != self._request_digest:
            return
        responder_key = None
        owner = self.owner
        if owner.require_signed_response:
            if owner.ca is not None:
                responder_key = owner.ca.certified_key(
                    response.certificate, self.target_fqdn,
                    response.signed_bytes(), response.signature)
            if responder_key is None:
                self._finish(RequestResult(RequestOutcome.BAD_SIGNATURE))
                return
        elif response.certificate is not None:
            responder_key = response.certificate.public_key
        self._finish(RequestResult(RequestOutcome.GRANTED,
                                   granted=response.granted,
                                   responder_key=responder_key))

    def _finish(self, result: RequestResult) -> None:
        self.done = True
        self._gen += 1  # invalidate in-flight timers
        self.on_done(result)
