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
sides sign through the one `_sign` and trust a peer's signature through
the one `_trusts`, which asks `CertificateAuthority.certifies`; nobody
keeps a peer's key. Each signs the bytes of its message's fields first
and then builds the message once, signature and certificate in place; a
request re-sent with a HIP answer keeps its first signature. A HIP answer
is the challenge's id: the gate binds a challenge to neither its
requester nor its difficulty, so presenting an outstanding id is the
whole check, and the human's cost is the solve time. The responder's
`grants` is the host's only record of which address each peer holds, and
its deny list (fed by `MobileHost.spit_block`) is the one permission
policy.
"""

import hashlib
import itertools
import math
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .addressing import AddressState, Ipv6Address
from .crypto import Certificate, encode_fields
from .engine import US_PER_SECOND
from .messages import _tuple_new, record
from .monitor import IntrusionMonitor

if TYPE_CHECKING:
    from .caller import CallerNode
    from .mobile_host import MobileHost

# seconds a requester waits for any answer before giving up
REQUEST_TIMEOUT_S = 3.0
# the HIP gate's settings (`HipGate`)
HIP_RATE_THRESHOLD = 3
HIP_WINDOW_S = 600.0
HIP_BASE_DIFFICULTY_S = 5.0
HIP_TTL_S = 300.0
# a day of human work: far past any challenge's lifetime, and it keeps a
# source that violates for months from doubling past a float's range
MAX_HIP_DIFFICULTY_S = 86_400.0
_HIP_WINDOW_US = round(HIP_WINDOW_S * US_PER_SECOND)
_HIP_TTL_US = round(HIP_TTL_S * US_PER_SECOND)


@record
class AddressRequest:
    """Signed ask for a disposable home address, sent to a prime address."""

    requester_fqdn: str
    reply_to: Ipv6Address
    request_id: int
    signature: bytes = b""
    certificate: Certificate | None = None
    # a challenge id, outside the signed bytes: a challenged request is
    # re-presented with it under the original signature
    hip_answer: int | None = None


def _request_bytes(requester_fqdn: str, reply_to: Ipv6Address,
                   request_id: int) -> bytes:
    """What an `AddressRequest` with these fields signs, before it is built."""
    return encode_fields(b"hoa-request", requester_fqdn.encode(),
                         reply_to.packed, request_id.to_bytes(8, "big"))


@record
class AddressResponse:
    """Grant of a disposable address, bound to the request it answers."""

    granted: Ipv6Address
    request_digest: bytes
    request_id: int
    signature: bytes = b""
    certificate: Certificate | None = None


def _response_bytes(granted: Ipv6Address, request_digest: bytes) -> bytes:
    """What an `AddressResponse` with these fields signs, before it is built."""
    return encode_fields(b"hoa-response", granted.packed, request_digest)


def _sign(node: "CallerNode", message: bytes) -> tuple[bytes, Certificate | None]:
    """`node`'s signature over `message` and its certificate; neither for
    a node without a scheme and keys."""
    if node.scheme is None or node.keys is None:
        return b"", None
    return node.scheme.sign(node.keys, message), node.certificate


def _trusts(node: "CallerNode", signer_fqdn: str,
            certificate: Certificate | None, message: bytes,
            signature: bytes) -> bool:
    """Whether `node` takes `message` as from `signer_fqdn`: a node that
    requires signatures takes only what its CA certifies for that name."""
    return not node.require_signed_response or (
        node.ca is not None and node.ca.certifies(certificate, signer_fqdn,
                                                  message, signature))


@record
class HipChallengeMsg:
    challenge_id: int
    difficulty_s: float
    request_id: int


@record
class Refusal:
    request_id: int


class HipGate:
    """Per-source request-rate gate issuing single-use, expiring challenges.

    More than `HIP_RATE_THRESHOLD` requests from one source identity inside
    a rolling `HIP_WINDOW_S` triggers challenges, each answerable for
    `HIP_TTL_S`. Difficulty starts at `HIP_BASE_DIFFICULTY_S` and doubles
    for each further fixed window in which the source is still violating,
    up to `MAX_HIP_DIFFICULTY_S`; it halves for each fixed window without
    a challenge, so a source gone quiet works its way back down (the
    adaptive puzzles of Juels & Brainard and of Aura et al.).

    `requests`, an `IntrusionMonitor` like the host's flood watch, counts
    each source's requests over `HIP_WINDOW_S`; its `observe` says whether
    a request needs a challenge. Violations are kept in the order their
    sources were last challenged, and a source whose difficulty has halved
    below the base is forgotten from the front: its next challenge starts
    at the base.
    """

    def __init__(self):
        self.requests = IntrusionMonitor(HIP_RATE_THRESHOLD / HIP_WINDOW_S,
                                         HIP_WINDOW_S)
        # source -> (last fixed window it violated in, current difficulty)
        self._violations: dict[str, tuple[int, float]] = {}
        self._outstanding: dict[int, int] = {}  # challenge id -> issued_us
        self._ids = itertools.count(1)
        self.challenges_issued = 0

    def issue(self, source: str, now_us: int, request_id: int) -> HipChallengeMsg:
        # challenges are issued in time order, so a window other than the
        # last one is a further one
        window = now_us // _HIP_WINDOW_US
        violations = self._violations
        last, difficulty = violations.pop(source, (window, HIP_BASE_DIFFICULTY_S))
        if window != last:
            # halved for each quiet window between, doubled for this one
            difficulty = math.ldexp(difficulty, last + 1 - window)
            difficulty = (min(2.0 * difficulty, MAX_HIP_DIFFICULTY_S)
                          if difficulty >= HIP_BASE_DIFFICULTY_S
                          else HIP_BASE_DIFFICULTY_S)
        violations[source] = (window, difficulty)  # the latest challenged
        while True:  # ends at the latest, `source` itself
            oldest, (last, held) = next(iter(violations.items()))
            if math.ldexp(held, last + 1 - window) >= HIP_BASE_DIFFICULTY_S:
                break
            del violations[oldest]
        # challenges are held in issue order: drop the expired ones from the
        # front, or a source that never answers would grow the map forever;
        # a late answer to one still fails once, as unknown
        outstanding = self._outstanding
        expired_before = now_us - _HIP_TTL_US
        while outstanding:
            oldest, issued_us = next(iter(outstanding.items()))
            if issued_us >= expired_before:
                break
            del outstanding[oldest]
        challenge_id = next(self._ids)
        outstanding[challenge_id] = now_us
        self.challenges_issued += 1
        return HipChallengeMsg(challenge_id=challenge_id,
                               difficulty_s=difficulty, request_id=request_id)

    def verify(self, challenge_id: int, now_us: int) -> bool:
        issued_us = self._outstanding.pop(challenge_id, None)  # single use
        return issued_us is not None and now_us - issued_us <= _HIP_TTL_US


# perfbench/tracing.py counts grants as the replies of this type
GrantAction = AddressResponse


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

    def handle_request(self, request: AddressRequest, now_us: int
                       ) -> AddressResponse | HipChallengeMsg | Refusal | None:
        """The reply to send back to `request.reply_to`, or None to drop it."""
        owner, fqdn = self.owner, request.requester_fqdn
        signed = _request_bytes(fqdn, request.reply_to, request.request_id)
        # a host that wants signed answers also wants signed requests
        if not _trusts(owner, fqdn, request.certificate, signed,
                       request.signature):
            self.dropped_bad_signature += 1
            return None
        hip = self.hip
        if hip.requests.observe(fqdn, now_us) and (
                request.hip_answer is None or not hip.verify(request.hip_answer, now_us)):
            return hip.issue(fqdn, now_us, request.request_id)
        # Every gate passed: only now does the user see anything.
        self.notifications += 1
        hoa = self.grant_for(fqdn)
        if hoa is None:
            self.refusals += 1
            return Refusal(request_id=request.request_id)
        digest = hashlib.sha256(signed).digest()
        signature, certificate = _sign(owner, _response_bytes(hoa, digest))
        return _tuple_new(AddressResponse, (
            hoa, digest, request.request_id, signature, certificate))

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
class RequestResult:
    outcome: RequestOutcome
    granted: Ipv6Address | None = None


@record
class SessionTimer:
    """Timer token owned by an InitiatorSession; `gen` guards staleness."""

    request_id: int
    gen: int
    challenge_id: int | None = None  # the solve timer's; else the deadline


class InitiatorSession:
    """Caller-side handshake state machine, advanced by engine events.

    Everything about the requester (identity, keys, certificate, CA,
    response policy, whether it solves HIP puzzles) is read from the
    owning node but `reply_to`, the address it is answered at, which the
    owner picks per peer. The owner also sends its requests
    (`_send_request`) and takes its result (`_finish_request`) before
    `on_done` sees it. It forwards matching packets via on_message() and
    timer tokens via on_timer(), and forgets the session when it
    finishes, so a finished session gets neither. A HIP challenge is
    answered after its difficulty in simulated seconds (the human at the
    keyboard), unless the owner's solve_hip is off, which models a bot
    that cannot solve puzzles. A difficulty outside the gate's range
    (0, `MAX_HIP_DIFFICULTY_S`] is ignored and the deadline kept, since
    no timer could hold it. The answer rides on the request already
    signed: the signature does not cover it.
    """

    def __init__(self, owner: "CallerNode", target_fqdn: str,
                 target_prime: Ipv6Address, reply_to: Ipv6Address,
                 request_id: int, on_done: Callable[[RequestResult], None]):
        self.owner = owner
        self.target_fqdn = target_fqdn
        self.target_prime = target_prime
        self.request_id = request_id
        self.on_done = on_done
        self._gen = 0
        fqdn = owner.fqdn
        signed = _request_bytes(fqdn, reply_to, request_id)
        signature, certificate = _sign(owner, signed)
        self._base_request = _tuple_new(AddressRequest, (
            fqdn, reply_to, request_id, signature, certificate, None))
        # the signed bytes leave the HIP answer out, so re-sends share it
        self._request_digest = hashlib.sha256(signed).digest()

    def start(self) -> None:
        self.owner._send_request(self, self._base_request)
        self._arm()

    def _arm(self, delay_s: float = REQUEST_TIMEOUT_S,
             challenge_id: int | None = None) -> None:
        self._gen += 1
        owner = self.owner
        owner.sim.call_in(delay_s, owner.node_id,
                          _tuple_new(SessionTimer, (self.request_id,
                                                    self._gen, challenge_id)))

    def on_message(self, payload: object) -> None:
        if isinstance(payload, HipChallengeMsg):
            # otherwise the deadline expires
            if (self.owner.solve_hip
                    and 0 < payload.difficulty_s <= MAX_HIP_DIFFICULTY_S):
                self._arm(payload.difficulty_s, payload.challenge_id)
            return
        if isinstance(payload, Refusal):
            self.owner._finish_request(self, _tuple_new(
                RequestResult, (RequestOutcome.REFUSED, None)))
            return
        if isinstance(payload, AddressResponse):
            self._handle_response(payload)

    def on_timer(self, token: SessionTimer) -> None:
        if token.gen != self._gen:
            return
        if token.challenge_id is not None:
            self.owner._send_request(self, self._base_request._replace(
                hip_answer=token.challenge_id))
            self._arm()
            return
        self.owner._finish_request(self, _tuple_new(
            RequestResult, (RequestOutcome.TIMEOUT, None)))

    def _handle_response(self, response: AddressResponse) -> None:
        if response.request_digest != self._request_digest:
            return
        owner = self.owner
        if not _trusts(owner, self.target_fqdn, response.certificate,
                       _response_bytes(response.granted,
                                       response.request_digest),
                       response.signature):
            owner._finish_request(self, _tuple_new(RequestResult, (
                RequestOutcome.BAD_SIGNATURE, None)))
            return
        owner._finish_request(self, _tuple_new(RequestResult, (
            RequestOutcome.GRANTED, response.granted)))
