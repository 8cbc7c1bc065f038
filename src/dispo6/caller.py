"""The contact manager, and the static correspondent node that runs it.

Every party keeps one book row per peer and calls the stored disposable
when one is held and not known dead; otherwise the distribution handshake
runs on the peer's prime first and the grant is remembered. `CallerNode`
(a plain Internet host) owns this whole call path: the book, pending
calls, the handshake sessions and the route-optimized send encoding.
`MobileHost` (mobile_host.py) subclasses it and overrides only its send
step and the bookkeeping that differs.
"""

import itertools
from enum import Enum
from typing import Callable

from .addressing import Ipv6Address, NameService, UnknownNameError
from .crypto import Certificate, CertificateAuthority, Ed25519Scheme, KeyPair
from .distribution import (
    AddressRequest,
    AddressResponse,
    HipChallengeMsg,
    InitiatorSession,
    Refusal,
    RequestOutcome,
    RequestResult,
    SessionTimer,
)
from .engine import Node, Packet, Simulator
from .messages import (
    CallAccept,
    CallReject,
    CallRequest,
    PeerBindingUpdate,
    Ping,
    Pong,
    RouteOptimized,
    _tuple_new,
    record,
)

# seconds a placed call waits for accept or reject before it counts as failed
CALL_TIMEOUT_S = 3.0


class CallOutcome(Enum):
    CONNECTED = "connected"
    REJECTED_PRIME_BLOCKED = "rejected_prime_blocked"
    REJECTED_BY_CALLEE = "rejected_by_callee"
    FAILED = "failed"
    # a call the scenario logs while the callee's battery is dead; the
    # caller itself sees only a timeout, as when the prime is blocked
    UNREACHABLE = "unreachable"


class AddressBookEntry:
    """Contact-manager row: the peer's address, where we call it. The
    address we granted the peer is the responder's `grants` entry."""

    __slots__ = ("peer_fqdn", "peer_address", "peer_known_blocked")

    def __init__(self, peer_fqdn: str):
        self.peer_fqdn = peer_fqdn
        self.peer_address: Ipv6Address | None = None
        self.peer_known_blocked = False


@record
class CallTimeout:
    call_id: int


@record
class StartCall:
    """Scheduler token: place one call at the drawn time of day."""

    target_fqdn: str
    day: int
    correspondent_id: int
    coincides_with_attack: bool


class CallerNode(Node):
    def __init__(self, sim: Simulator, node_id: str, fqdn: str,
                 address: Ipv6Address | None, name_service: NameService, *,
                 scheme: Ed25519Scheme | None = None,
                 keys: KeyPair | None = None,
                 certificate: Certificate | None = None,
                 ca: CertificateAuthority | None = None,
                 require_signed_response: bool = False,
                 solve_hip: bool = True):
        """`address` is where this node calls and requests from. A mobile
        host passes None and sets it when it attaches; its home addresses
        are reached through the home agent, so no route is registered."""
        super().__init__(sim, node_id)
        self.fqdn = fqdn
        self.address = address
        self.name_service = name_service
        self.scheme = scheme
        self.keys = keys
        self.certificate = certificate
        self.ca = ca
        self.require_signed_response = require_signed_response
        self.solve_hip = solve_hip
        self.book: dict[str, AddressBookEntry] = {}
        self.on_start_call: Callable[["CallerNode", StartCall], None] | None = None
        self._route_cache: dict[Ipv6Address, Ipv6Address] = {}
        self._sessions: dict[int, InitiatorSession] = {}
        self._pending: dict[int, tuple] = {}  # call id -> (entry, on_result)
        self._request_ids = itertools.count(1)
        self._call_ids = itertools.count(1)
        if address is not None:
            sim.register_route(address, node_id)

    # -- bookkeeping -------------------------------------------------------

    def entry_for(self, fqdn: str) -> AddressBookEntry:
        entry = self.book.get(fqdn)
        if entry is None:
            entry = self.book[fqdn] = AddressBookEntry(fqdn)
        return entry

    def has_address_for(self, fqdn: str) -> bool:
        entry = self.book.get(fqdn)
        return (entry is not None and entry.peer_address is not None
                and not entry.peer_known_blocked)

    def learn_address(self, fqdn: str, address: Ipv6Address) -> None:
        """Out-of-band grant (in person, e-mail, messaging)."""
        entry = self.entry_for(fqdn)
        entry.peer_address = address
        entry.peer_known_blocked = False

    # -- protocol ------------------------------------------------------------

    def request_address(self, target_fqdn: str,
                        on_done: Callable[[RequestResult], None]) -> None:
        target_prime = self.name_service.resolve(target_fqdn)
        request_id = next(self._request_ids)
        # the grant comes back where the request says, as a call's answer does
        reply_to = self._calls_from(target_fqdn) or self.address
        session = InitiatorSession(self, target_fqdn, target_prime, reply_to,
                                   request_id, on_done)
        self._sessions[request_id] = session
        session.start()

    def _send_request(self, session: InitiatorSession,
                      request: AddressRequest) -> None:
        # always to the prime itself, which its home agent tunnels on:
        # a care-of address announced for the prime may be stale
        self._emit(_tuple_new(Packet, (request.reply_to, session.target_prime,
                                       request)))

    def _finish_request(self, session: InitiatorSession,
                        result: RequestResult) -> None:
        del self._sessions[session.request_id]
        if result.outcome is RequestOutcome.GRANTED:
            self.learn_address(session.target_fqdn, result.granted)
        session.on_done(result)

    def place_call(self, target_fqdn: str,
                   on_result: Callable[[CallOutcome], None]) -> None:
        """Contact-manager entry point: handshake first if no usable address."""
        entry = self.entry_for(target_fqdn)
        if entry.peer_address is not None and not entry.peer_known_blocked:
            self._start_call(entry, on_result)
            return
        try:
            self.request_address(
                target_fqdn,
                lambda result: self._after_handshake(entry, result, on_result))
        except UnknownNameError:
            on_result(CallOutcome.FAILED)

    def _after_handshake(self, entry: AddressBookEntry, result: RequestResult,
                         on_result: Callable[[CallOutcome], None]) -> None:
        if result.outcome is RequestOutcome.GRANTED:
            self._start_call(entry, on_result)
        elif result.outcome is RequestOutcome.REFUSED:
            on_result(CallOutcome.REJECTED_BY_CALLEE)
        elif result.outcome is RequestOutcome.TIMEOUT:
            on_result(CallOutcome.REJECTED_PRIME_BLOCKED)
        else:
            on_result(CallOutcome.FAILED)

    def _start_call(self, entry: AddressBookEntry,
                    on_result: Callable[[CallOutcome], None]) -> None:
        call_id = next(self._call_ids)
        self._pending[call_id] = (entry, on_result)
        src = self._calls_from(entry.peer_fqdn) or self.address
        self._send(src, entry.peer_address, _tuple_new(CallRequest, (src, call_id)))
        self.sim.call_in(CALL_TIMEOUT_S, self.node_id,
                         _tuple_new(CallTimeout, (call_id,)))

    def _finish_call(self, call_id: int, outcome: CallOutcome) -> None:
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return
        entry, on_result = pending
        if outcome is CallOutcome.CONNECTED:
            self._call_connected(entry)
        elif outcome is CallOutcome.FAILED:
            # silence on the wire: the disposable we hold is presumed dead,
            # the next attempt re-runs the handshake
            entry.peer_known_blocked = True
        on_result(outcome)

    def _calls_from(self, peer_fqdn: str) -> Ipv6Address | None:
        """Where to call and ask the peer from, if not from `address`."""

    def _call_connected(self, entry: AddressBookEntry) -> None:
        """A call to `entry`'s peer was accepted."""

    # -- send path ---------------------------------------------------------

    def _send(self, src: Ipv6Address, dst: Ipv6Address,
              payload: object) -> None:
        """Send from one of our addresses. A peer that announced a care-of
        address is reached there directly, with its home address kept in
        the inner packet (route optimization, RFC 6275 section 6.4)."""
        self._emit(self._addressed(src, dst, payload))

    def _addressed(self, src: Ipv6Address, dst: Ipv6Address,
                   payload: object) -> Packet:
        packet = _tuple_new(Packet, (src, dst, payload))
        care_of = self._route_cache.get(dst)
        if care_of is not None:
            packet = _tuple_new(Packet, (
                src, care_of, _tuple_new(RouteOptimized, (packet,))))
        return packet

    def _emit(self, packet: Packet) -> None:
        """Put one packet on the wire."""
        self.sim.send(packet)

    # -- engine callbacks --------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        handler = self._packet_handlers.get(type(packet.payload))
        if handler is not None:
            handler(self, packet)

    def _on_session_message(self, packet: Packet) -> None:
        session = self._sessions.get(packet.payload.request_id)
        if session is not None:
            session.on_message(packet.payload)

    def _on_call_accept(self, packet: Packet) -> None:
        self._finish_call(packet.payload.call_id, CallOutcome.CONNECTED)

    def _on_call_reject(self, packet: Packet) -> None:
        self._finish_call(packet.payload.call_id, CallOutcome.REJECTED_BY_CALLEE)

    def _on_peer_binding_update(self, packet: Packet) -> None:
        """Rebind only a home address held in the book: off the path, only
        the host that granted it and its holder know it. Reachability at the
        named care-of address goes unchecked (RFC 4225 section 3.2)."""
        update = packet.payload
        if any(entry.peer_address == update.home_address
               for entry in self.book.values()):
            self._route_cache[update.home_address] = update.care_of

    def _on_ping(self, packet: Packet) -> None:
        self._send(self.address, packet.src, Pong())

    _packet_handlers = {
        AddressResponse: _on_session_message,
        HipChallengeMsg: _on_session_message,
        Refusal: _on_session_message,
        CallAccept: _on_call_accept,
        CallReject: _on_call_reject,
        PeerBindingUpdate: _on_peer_binding_update,
        Ping: _on_ping,
    }

    def on_timer(self, token: object) -> None:
        handler = self._timer_handlers.get(type(token))
        if handler is not None:
            handler(self, token)

    def _on_session_timer(self, token: SessionTimer) -> None:
        session = self._sessions.get(token.request_id)
        if session is not None:
            session.on_timer(token)

    def _on_call_timeout(self, token: CallTimeout) -> None:
        self._finish_call(token.call_id, CallOutcome.FAILED)

    def _on_start_call(self, token: StartCall) -> None:
        if self.on_start_call is not None:
            self.on_start_call(self, token)

    _timer_handlers = {
        SessionTimer: _on_session_timer,
        CallTimeout: _on_call_timeout,
        StartCall: _on_start_call,
    }
