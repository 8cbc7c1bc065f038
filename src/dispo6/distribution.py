"""Disposable-address request handshake and its anti-abuse gates.

A caller asks the target's prime address for a disposable home address.
Requests and replies are signed when a PKI is configured. Rapid requests
from one source identity hit a human-interaction-proof gate (abstract
puzzle with a cost in simulated seconds of human work, difficulty
doubling for every further window in violation), and the target user is
only notified of requests that already passed every gate.

Each side says each thing once. The requester has one identity, its
owning `CallerNode`, which the session reads instead of copying. Both
sides check the peer's certified signature through the one
`CertificateAuthority.certified_key`, and sign by adding the signature
to the message they built. The responder's `grants` is the host's only
record of which address each peer holds.
"""

import hashlib
import itertools
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .addressing import AddressState, Ipv6Address
from .crypto import Certificate, CertificateAuthority, Ed25519Scheme, KeyPair, encode_fields
from .engine import SimTime, US_PER_SECOND

if TYPE_CHECKING:
    from .caller import CallerNode


@dataclass(frozen=True, slots=True)
class HipAnswer:
    challenge_id: int
    answer: bytes


@dataclass(frozen=True, slots=True)
class AddressRequest:
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


@dataclass(frozen=True, slots=True)
class AddressResponse:
    """Grant of a disposable address, bound to the request it answers."""

    granted: Ipv6Address
    request_digest: bytes
    request_id: int
    signature: bytes = b""
    certificate: Certificate | None = None

    def signed_bytes(self) -> bytes:
        return encode_fields(b"hoa-response", self.granted.packed,
                             self.request_digest)


@dataclass(frozen=True, slots=True)
class HipChallengeMsg:
    challenge_id: int
    difficulty_s: float
    request_id: int


@dataclass(frozen=True, slots=True)
class Refusal:
    request_id: int
    reason: str


class HipGate:
    """Per-source request-rate gate issuing single-use, expiring challenges.

    More than `rate_threshold` requests from one source identity inside a
    rolling `window_s` triggers challenges. Difficulty starts at
    `base_difficulty_s` and doubles for each further fixed window in which
    the source is still violating.
    """

    def __init__(self, rate_threshold: int = 3, window_s: float = 600.0,
                 base_difficulty_s: float = 5.0, ttl_s: float = 300.0):
        self.rate_threshold = rate_threshold
        self.window_s = window_s
        self.base_difficulty_s = base_difficulty_s
        self.ttl_s = ttl_s
        self._history: dict[str, deque[int]] = {}
        self._violation_windows: dict[str, set[int]] = {}
        self._outstanding: dict[int, tuple[int, float]] = {}  # id -> (issued_us, difficulty)
        self._ids = itertools.count(1)
        self.challenges_issued = 0
        self.passes = 0
        self.failures = 0

    @staticmethod
    def solution(challenge_id: int) -> bytes:
        """The puzzle is abstract: producing this costs human seconds, checking is free."""
        return hashlib.sha256(b"hip:" + challenge_id.to_bytes(8, "big")).digest()[:8]

    def observe(self, source: str, now: SimTime) -> None:
        window_us = round(self.window_s * US_PER_SECOND)
        events = self._history.setdefault(source, deque())
        events.append(now.micros)
        while events and events[0] < now.micros - window_us:
            events.popleft()

    def challenge_required(self, source: str) -> bool:
        events = self._history.get(source)
        return bool(events) and len(events) > self.rate_threshold

    def issue(self, source: str, now: SimTime, request_id: int) -> HipChallengeMsg:
        windows = self._violation_windows.setdefault(source, set())
        windows.add(now.micros // round(self.window_s * US_PER_SECOND))
        difficulty = self.base_difficulty_s * 2 ** (len(windows) - 1)
        challenge_id = next(self._ids)
        self._outstanding[challenge_id] = (now.micros, difficulty)
        self.challenges_issued += 1
        return HipChallengeMsg(challenge_id=challenge_id,
                               difficulty_s=difficulty, request_id=request_id)

    def verify(self, answer: HipAnswer, now: SimTime) -> bool:
        issued = self._outstanding.pop(answer.challenge_id, None)  # single use
        if issued is None:
            self.failures += 1
            return False
        issued_us, _ = issued
        if now.micros - issued_us > round(self.ttl_s * US_PER_SECOND):
            self.failures += 1
            return False
        if answer.answer != self.solution(answer.challenge_id):
            self.failures += 1
            return False
        self.passes += 1
        return True


class PermissionDecision(Enum):
    ACCEPT = "accept"
    REFUSE = "refuse"


@dataclass(frozen=True, slots=True)
class GrantAction:
    response: AddressResponse


@dataclass(frozen=True, slots=True)
class ChallengeAction:
    challenge: HipChallengeMsg


@dataclass(frozen=True, slots=True)
class RefuseAction:
    refusal: Refusal


ResponderAction = GrantAction | ChallengeAction | RefuseAction | None


class DistributionResponder:
    """Target-side handler: signature gate, HIP gate, user permission, grant.

    Grant bookkeeping is injective per requester identity: each verified
    identity keeps getting its own address back while that address is
    usable, and never an address granted to someone else. `grants` is the
    host's one record of which address each peer holds.
    """

    def __init__(self,
                 allocate: Callable[[], Ipv6Address],
                 address_state: Callable[[Ipv6Address], AddressState | None],
                 scheme: Ed25519Scheme | None = None,
                 keys: KeyPair | None = None,
                 certificate: Certificate | None = None,
                 ca: CertificateAuthority | None = None,
                 pki_required: bool = False,
                 hip: HipGate | None = None,
                 permission: Callable[[AddressRequest], PermissionDecision] | None = None):
        self.allocate = allocate
        self.address_state = address_state
        self.scheme = scheme
        self.keys = keys
        self.certificate = certificate
        self.ca = ca
        self.pki_required = pki_required
        self.hip = hip
        self.permission = permission
        self.grants: dict[str, Ipv6Address] = {}
        self.denied: set[str] = set()
        self.notifications: list[tuple[SimTime, str]] = []
        self.dropped_bad_signature = 0
        self.refusals = 0
        self.granted_total = 0

    def handle_request(self, request: AddressRequest, now: SimTime) -> ResponderAction:
        if self.pki_required and (self.ca is None or self.ca.certified_key(
                request.certificate, request.requester_fqdn,
                request.signed_bytes(), request.signature) is None):
            self.dropped_bad_signature += 1
            return None
        if self.hip is not None:
            self.hip.observe(request.requester_fqdn, now)
            if self.hip.challenge_required(request.requester_fqdn):
                if request.hip_answer is None or not self.hip.verify(
                        request.hip_answer, now):
                    return ChallengeAction(self.hip.issue(
                        request.requester_fqdn, now, request.request_id))
        # Every gate passed: only now does the user see anything.
        self.notifications.append((now, request.requester_fqdn))
        if self._decide(request) is PermissionDecision.REFUSE:
            self.refusals += 1
            return RefuseAction(Refusal(request_id=request.request_id,
                                        reason="permission denied"))
        return GrantAction(self._respond(request))

    def _decide(self, request: AddressRequest) -> PermissionDecision:
        if request.requester_fqdn in self.denied:
            return PermissionDecision.REFUSE
        if self.permission is not None:
            return self.permission(request)
        return PermissionDecision.ACCEPT

    def _grant_for(self, peer_fqdn: str) -> Ipv6Address:
        """Same address back while it is usable, a fresh one otherwise."""
        hoa = self.grants.get(peer_fqdn)
        if hoa is None or self.address_state(hoa) is not AddressState.ACTIVE:
            hoa = self.allocate()
            self.grants[peer_fqdn] = hoa
        return hoa

    def grant_direct(self, peer_fqdn: str) -> Ipv6Address | None:
        """Out-of-band grant (in person, e-mail, messaging); honors denials."""
        if peer_fqdn in self.denied:
            return None
        hoa = self._grant_for(peer_fqdn)
        self.granted_total += 1
        return hoa

    def _respond(self, request: AddressRequest) -> AddressResponse:
        hoa = self._grant_for(request.requester_fqdn)
        self.granted_total += 1
        response = AddressResponse(granted=hoa, request_digest=request.digest(),
                                   request_id=request.request_id)
        if self.scheme is not None and self.keys is not None:
            response = replace(
                response, certificate=self.certificate,
                signature=self.scheme.sign(self.keys, response.signed_bytes()))
        return response


class RequestOutcome(Enum):
    GRANTED = "granted"
    REFUSED = "refused"
    TIMEOUT = "timeout"
    BAD_SIGNATURE = "bad_signature"


@dataclass(frozen=True, slots=True)
class RequestResult:
    outcome: RequestOutcome
    granted: Ipv6Address | None = None
    responder_key: bytes | None = None


@dataclass(frozen=True, slots=True)
class SessionTimer:
    """Timer token owned by an InitiatorSession; `gen` guards staleness."""

    request_id: int
    kind: str  # "deadline" or "solve"
    gen: int
    challenge: HipChallengeMsg | None = None


class InitiatorSession:
    """Caller-side handshake state machine, advanced by engine events.

    Everything about the requester (identity, address, keys, certificate,
    CA, response policy, timeout) is read from the owning node. The owner
    forwards matching packets via on_message() and timer tokens via
    on_timer(). A HIP challenge is answered after its difficulty in
    simulated seconds (the human at the keyboard), unless solve_hip is
    off, which models a bot that cannot solve puzzles.
    """

    def __init__(self, owner: "CallerNode", target_fqdn: str, request_id: int,
                 on_done: Callable[[RequestResult], None],
                 send_request: Callable[[AddressRequest], None],
                 solve_hip: bool):
        self.owner = owner
        self.target_fqdn = target_fqdn
        self.request_id = request_id
        self.on_done = on_done
        self.send_request = send_request
        self.solve_hip = solve_hip
        self.done = False
        self._gen = 0
        self._base_request = self._build_request(hip_answer=None)

    def _build_request(self, hip_answer: HipAnswer | None) -> AddressRequest:
        owner = self.owner
        request = AddressRequest(requester_name=owner.fqdn.split(".")[0],
                                 requester_fqdn=owner.fqdn, extra_info="",
                                 reply_to=owner.address,
                                 request_id=self.request_id,
                                 hip_answer=hip_answer)
        if owner.scheme is not None and owner.keys is not None:
            request = replace(
                request, certificate=owner.certificate,
                signature=owner.scheme.sign(owner.keys, request.signed_bytes()))
        return request

    def start(self) -> None:
        self.send_request(self._base_request)
        self._arm("deadline")

    def _arm(self, kind: str, delay_s: float | None = None,
             challenge: HipChallengeMsg | None = None) -> None:
        self._gen += 1
        owner = self.owner
        owner.sim.call_in(owner.request_timeout_s if delay_s is None else delay_s,
                          owner.node_id,
                          SessionTimer(request_id=self.request_id, kind=kind,
                                       gen=self._gen, challenge=challenge))

    def on_message(self, payload: object) -> None:
        if self.done:
            return
        if isinstance(payload, HipChallengeMsg):
            if not self.solve_hip:
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
            self.send_request(self._build_request(hip_answer=answer))
            self._arm("deadline")
            return
        self._finish(RequestResult(RequestOutcome.TIMEOUT))

    def _handle_response(self, response: AddressResponse) -> None:
        if response.request_digest != self._base_request.digest():
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
