"""Mobile-node state machine: mobility, calls, detection, address disposal.

The host keeps one prime home address (published in the name service, used
only to request disposables) and a per-correspondent set of disposable home
addresses. A sliding-window rate monitor watches traffic per home address;
when an address is flooded it is blocked at the home agent, and in
route-optimization mode the care-of address is rotated so an attacker who
learned it goes dark too. Blocking one address never touches the others.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .addressing import (
    AddressRole,
    AddressState,
    Ipv6Address,
    NameService,
    UnknownNameError,
    random_iid,
)
from .crypto import Certificate, CertificateAuthority, Ed25519Scheme, KeyPair
from .distribution import (
    AddressRequest,
    AddressResponse,
    ChallengeAction,
    DistributionResponder,
    GrantAction,
    HipChallengeMsg,
    HipGate,
    InitiatorSession,
    Refusal,
    RefuseAction,
    RequestOutcome,
    RequestResult,
    SessionTimer,
)
from .energy import EnergyAccount, PacketKind
from .engine import US_PER_SECOND, Node, Packet, SimTime, Simulator
from .home_agent import (
    BindingAck,
    BindingUpdate,
    Encapsulated,
    HomeAgent,
    ManagementKind,
    ManagementMessage,
    ReverseTunneled,
)
from .messages import (
    PRIME_REJECT_REASON,
    CallAccept,
    CallReject,
    CallRequest,
    PeerBindingUpdate,
    Ping,
    Pong,
    RouteOptimized,
)
from .sas import PairResult, run_pairing


class Mode(Enum):
    ROUTE_OPTIMIZATION = "route_optimization"
    BIDIRECTIONAL_TUNNELING = "bidirectional_tunneling"


class CallOutcome(Enum):
    CONNECTED = "connected"
    REJECTED_PRIME_BLOCKED = "rejected_prime_blocked"
    REJECTED_BY_CALLEE = "rejected_by_callee"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class AttackAlert:
    hoa: Ipv6Address
    window_rate: float
    first_seen: SimTime


class IntrusionMonitor:
    """Per-address packets-per-second over a sliding window, strict threshold.

    A burst of exactly threshold*window packets stays quiet; one more
    raises an alert.
    """

    def __init__(self, threshold_pps: float = 10.0, window_s: float = 10.0):
        self.threshold_pps = threshold_pps
        self.window_s = window_s
        self._window_us = round(window_s * US_PER_SECOND)
        self._events: dict[Ipv6Address, deque[int]] = {}

    def observe(self, hoa: Ipv6Address, now: SimTime) -> AttackAlert | None:
        events = self._events.get(hoa)
        if events is None:
            events = self._events[hoa] = deque()
        events.append(now.micros)
        cutoff = now.micros - self._window_us
        while events and events[0] < cutoff:
            events.popleft()
        rate = len(events) / self.window_s
        if rate > self.threshold_pps:
            return AttackAlert(hoa=hoa, window_rate=rate,
                               first_seen=SimTime(events[0]))
        return None

    def clear(self, hoa: Ipv6Address) -> None:
        self._events.pop(hoa, None)


@dataclass(slots=True)
class AddressBookEntry:
    """Contact-manager row; both directions of the address exchange."""

    peer_fqdn: str
    peer_pubkey: bytes | None = None
    granted_to_peer: Ipv6Address | None = None  # our address, in their hands
    peer_address: Ipv6Address | None = None     # their address, where we call
    peer_known_blocked: bool = False
    denied: bool = False


@dataclass(slots=True)
class HostCounters:
    pings: int = 0
    calls_received: int = 0
    calls_accepted: int = 0
    prime_call_rejects: int = 0
    calls_placed: int = 0
    stale_dropped: int = 0
    dead_dropped: int = 0
    blocked_local_dropped: int = 0
    non_hoa_dropped: int = 0
    alerts: int = 0
    disposals: int = 0
    prime_disposals: int = 0
    reactivations: int = 0
    binding_updates: int = 0
    peer_binding_updates: int = 0
    pool_misses: int = 0


@dataclass(frozen=True, slots=True)
class CallTimeout:
    call_id: int


@dataclass(frozen=True, slots=True)
class PrimeReactivate:
    generation: int


@dataclass(frozen=True, slots=True)
class WindowBlock:
    """Scheduled-attack window opening: policy blocks the prime."""


@dataclass(frozen=True, slots=True)
class WindowUnblock:
    """Scheduled-attack window closing: policy reactivates the prime."""


@dataclass(slots=True)
class PendingCall:
    call_id: int
    peer_fqdn: str
    on_result: Callable[[CallOutcome], None]
    done: bool = False


class MobileHost(Node):
    def __init__(self, sim: Simulator, node_id: str, fqdn: str,
                 name_service: NameService, *,
                 mode: Mode = Mode.BIDIRECTIONAL_TUNNELING,
                 scheme: Ed25519Scheme | None = None,
                 ca: CertificateAuthority | None = None,
                 pki_required: bool = False,
                 energy: EnergyAccount | None = None,
                 detection_threshold_pps: float = 10.0,
                 detection_window_s: float = 10.0,
                 auto_block: bool = True,
                 prime_reactivate_after_s: float = 60.0,
                 hip: HipGate | None = None,
                 pool_size: int = 4,
                 call_timeout_s: float = 3.0,
                 request_timeout_s: float = 3.0):
        super().__init__(sim, node_id)
        self.fqdn = fqdn
        self.name_service = name_service
        self.mode = mode
        self.scheme = scheme
        self.ca = ca
        self.pki_required = pki_required
        self.energy = energy
        self.auto_block = auto_block
        self.prime_reactivate_after_s = prime_reactivate_after_s
        self.call_timeout_s = call_timeout_s
        self.request_timeout_s = request_timeout_s
        self.pool_size = pool_size
        self.counters = HostCounters()
        self.monitor = IntrusionMonitor(detection_threshold_pps, detection_window_s)
        self.keys: KeyPair | None = None
        self.certificate: Certificate | None = None
        if scheme is not None:
            self.keys = scheme.generate(sim.rng)
            if ca is not None:
                self.certificate = ca.issue(fqdn, self.keys.public)
        self.book: dict[str, AddressBookEntry] = {}
        self.address_states: dict[Ipv6Address, AddressState] = {}
        self.prime: Ipv6Address | None = None
        self.coa: Ipv6Address | None = None
        self.visited_prefix: int | None = None
        self.prime_disabled = False
        self.ha: HomeAgent | None = None
        self.ha_admin: Ipv6Address | None = None
        self.sa_tag = ""
        self.responder = DistributionResponder(
            owner_fqdn=fqdn,
            allocate=self._allocate_disposable,
            address_state=lambda hoa: self.address_states.get(hoa),
            scheme=scheme, keys=self.keys, certificate=self.certificate,
            ca=ca, pki_required=pki_required,
            hip=hip if hip is not None else HipGate())
        self._pool: list[Ipv6Address] = []
        self._sessions: dict[int, InitiatorSession] = {}
        self._pending_calls: dict[int, PendingCall] = {}
        self._active_peers: dict[str, Ipv6Address] = {}  # fqdn -> peer address
        self._route_cache: dict[Ipv6Address, Ipv6Address] = {}
        self._peer_bu_sent: set[Ipv6Address] = set()
        self._request_ids = itertools.count(1)
        self._call_ids = itertools.count(1)
        self._reactivate_gen = 0

    # -- provisioning -------------------------------------------------------

    def attach(self, ha: HomeAgent, visited_prefix: int) -> None:
        """Register with the home agent and bring up addresses (time-0 setup)."""
        self.ha = ha
        self.ha_admin = ha.admin_address
        self.sa_tag = f"sa-{self.node_id}-{self.sim.rng.getrandbits(64):016x}"
        ha.attach_host(self.node_id, self.sa_tag)
        self.prime = ha.generate_home_address(self.node_id, self.sa_tag,
                                              role=AddressRole.PRIME)
        self.address_states[self.prime] = AddressState.ACTIVE
        self.visited_prefix = visited_prefix
        self.coa = Ipv6Address(visited_prefix, random_iid(self.sim.rng))
        self.sim.register_route(self.coa, self.node_id)
        ha.process_binding_update(self.node_id, self.sa_tag, self.coa)
        for _ in range(self.pool_size):
            hoa = ha.generate_home_address(self.node_id, self.sa_tag)
            self.address_states[hoa] = AddressState.ACTIVE
            self._pool.append(hoa)
        self.name_service.register(self.fqdn, self.prime, self.node_id)

    # -- mobility ---------------------------------------------------------

    def move_to_subnet(self, new_prefix: int) -> None:
        self.visited_prefix = new_prefix
        self._configure_new_care_of()

    def _configure_new_care_of(self) -> None:
        if self.coa is not None:
            self.sim.unregister_route(self.coa)
        self.coa = Ipv6Address(self.visited_prefix, random_iid(self.sim.rng))
        self.sim.register_route(self.coa, self.node_id)
        self._peer_bu_sent.clear()
        self.counters.binding_updates += 1
        self.sim.send(Packet(src=self.coa, dst=self.ha_admin,
                             payload=BindingUpdate(host_id=self.node_id,
                                                   auth=self.sa_tag,
                                                   care_of=self.coa)))
        if self.mode is Mode.ROUTE_OPTIMIZATION:
            # only peers with live sessions learn the new location
            for fqdn, peer_addr in self._active_peers.items():
                entry = self.book.get(fqdn)
                if entry is None or entry.granted_to_peer is None:
                    continue
                self.counters.peer_binding_updates += 1
                self.sim.send(Packet(
                    src=entry.granted_to_peer, dst=peer_addr,
                    payload=PeerBindingUpdate(home_address=entry.granted_to_peer,
                                              care_of=self.coa)))

    # -- address lifecycle ---------------------------------------------------

    def dispose_address(self, hoa: Ipv6Address, reason: str = "",
                        auto_reactivate: bool | None = None) -> AddressRole | None:
        """Block `hoa` at the home agent; rotate the care-of address in RO mode.

        Disposing the prime is allowed (it suspends the distribution
        protocol) and reported distinctly.
        """
        state = self.address_states.get(hoa)
        if state is None:
            raise ValueError(f"{hoa} is not an address of {self.fqdn}")
        if state is not AddressState.ACTIVE:
            return None  # idempotent
        self.address_states[hoa] = AddressState.BLOCKED
        self._send_management(ManagementMessage(kind=ManagementKind.BLOCK_REQUEST,
                                                host_id=self.node_id,
                                                auth=self.sa_tag, hoa=hoa))
        self.monitor.clear(hoa)
        self.counters.disposals += 1
        role = AddressRole.DISPOSABLE
        if hoa == self.prime:
            role = AddressRole.PRIME
            self.counters.prime_disposals += 1
            self.prime_disabled = True
            self.responder.enabled = False
            arm = self.auto_block if auto_reactivate is None else auto_reactivate
            if arm:
                self._reactivate_gen += 1
                self.sim.call_in(self.prime_reactivate_after_s, self.node_id,
                                 PrimeReactivate(self._reactivate_gen))
        if self.mode is Mode.ROUTE_OPTIMIZATION:
            # the attacker may hold the current care-of address
            self._configure_new_care_of()
        return role

    def reactivate_address(self, hoa: Ipv6Address) -> None:
        state = self.address_states.get(hoa)
        if state is None:
            raise ValueError(f"{hoa} is not an address of {self.fqdn}")
        if state is AddressState.BLOCKED:
            self.address_states[hoa] = AddressState.ACTIVE
            self.counters.reactivations += 1
            self._send_management(ManagementMessage(
                kind=ManagementKind.REACTIVATE_REQUEST, host_id=self.node_id,
                auth=self.sa_tag, hoa=hoa))
            self.monitor.clear(hoa)
        if hoa == self.prime:
            self.prime_disabled = False
            self.responder.enabled = True

    def spit_block(self, peer_fqdn: str) -> None:
        """Drop a nuisance caller: block their address, refuse re-requests."""
        entry = self.book.setdefault(peer_fqdn, AddressBookEntry(peer_fqdn))
        entry.denied = True
        self.responder.denied.add(peer_fqdn)
        self._active_peers.pop(peer_fqdn, None)
        if (entry.granted_to_peer is not None
                and self.address_states.get(entry.granted_to_peer)
                is AddressState.ACTIVE):
            self.dispose_address(entry.granted_to_peer, reason="spit")

    def grant_out_of_band(self, peer_fqdn: str) -> Ipv6Address | None:
        """Hand out a disposable over a side channel (in person, e-mail, IM)."""
        hoa = self.responder.grant_direct(peer_fqdn)
        if hoa is not None:
            entry = self.book.setdefault(peer_fqdn, AddressBookEntry(peer_fqdn))
            entry.granted_to_peer = hoa
        return hoa

    def _allocate_disposable(self) -> Ipv6Address:
        if self._pool:
            hoa = self._pool.pop(0)
        else:
            self.counters.pool_misses += 1
            hoa = self.ha.generate_home_address(self.node_id, self.sa_tag)
            self.address_states[hoa] = AddressState.ACTIVE
        self._send_management(ManagementMessage(kind=ManagementKind.HOA_REQUEST,
                                                host_id=self.node_id,
                                                auth=self.sa_tag))
        return hoa

    # -- calls -----------------------------------------------------------------

    def place_call(self, peer_fqdn: str,
                   on_result: Callable[[CallOutcome], None]) -> None:
        """Contact-manager entry point: handshake first if no usable address."""
        self.counters.calls_placed += 1
        entry = self.book.setdefault(peer_fqdn, AddressBookEntry(peer_fqdn))
        if entry.peer_address is not None and not entry.peer_known_blocked:
            self._start_call(entry, on_result)
            return
        try:
            self.request_disposable(
                peer_fqdn,
                lambda result: self._after_handshake(entry, result, on_result))
        except UnknownNameError:
            on_result(CallOutcome.FAILED)

    def request_disposable(self, target_fqdn: str,
                           on_done: Callable[[RequestResult], None],
                           solve_hip: bool = True) -> None:
        target_prime = self.name_service.resolve(target_fqdn)
        request_id = next(self._request_ids)

        def finish(result: RequestResult) -> None:
            self._sessions.pop(request_id, None)
            on_done(result)

        session = InitiatorSession(
            self.sim, self.node_id,
            requester_name=self.fqdn.split(".")[0],
            requester_fqdn=self.fqdn,
            source=self.prime,
            target_prime=target_prime,
            target_fqdn=target_fqdn,
            request_id=request_id,
            on_done=finish,
            send_request=lambda req: self._transmit(self.prime, target_prime,
                                                    req, size=128),
            scheme=self.scheme, keys=self.keys, certificate=self.certificate,
            ca=self.ca, require_signed_response=self.pki_required,
            timeout_s=self.request_timeout_s, solve_hip=solve_hip)
        self._sessions[request_id] = session
        session.start()

    def _after_handshake(self, entry: AddressBookEntry, result: RequestResult,
                         on_result: Callable[[CallOutcome], None]) -> None:
        if result.outcome is RequestOutcome.GRANTED:
            entry.peer_address = result.granted
            entry.peer_known_blocked = False
            if result.responder_key is not None:
                entry.peer_pubkey = result.responder_key
            self._start_call(entry, on_result)
            return
        if result.outcome is RequestOutcome.REFUSED:
            on_result(CallOutcome.REJECTED_BY_CALLEE)
        elif result.outcome is RequestOutcome.TIMEOUT:
            on_result(CallOutcome.REJECTED_PRIME_BLOCKED)
        else:
            on_result(CallOutcome.FAILED)

    def _start_call(self, entry: AddressBookEntry,
                    on_result: Callable[[CallOutcome], None]) -> None:
        call_id = next(self._call_ids)
        self._pending_calls[call_id] = PendingCall(call_id=call_id,
                                                   peer_fqdn=entry.peer_fqdn,
                                                   on_result=on_result)
        self._transmit(self.prime, entry.peer_address,
                       CallRequest(caller_fqdn=self.fqdn, reply_to=self.prime,
                                   call_id=call_id))
        self.sim.call_in(self.call_timeout_s, self.node_id, CallTimeout(call_id))

    def _finish_call(self, call_id: int, outcome: CallOutcome) -> None:
        pending = self._pending_calls.pop(call_id, None)
        if pending is None or pending.done:
            return
        pending.done = True
        entry = self.book.get(pending.peer_fqdn)
        if outcome is CallOutcome.CONNECTED and entry is not None:
            self._active_peers[pending.peer_fqdn] = entry.peer_address
        if outcome is CallOutcome.FAILED and entry is not None:
            # silence on the wire: the disposable we hold is presumed dead,
            # the next attempt re-runs the handshake
            entry.peer_known_blocked = True
        pending.on_result(outcome)

    # -- transmit helpers ----------------------------------------------------

    def _send_management(self, message: ManagementMessage) -> None:
        if self._charge_tx():
            self.sim.send(Packet(src=self.coa, dst=self.ha_admin,
                                 payload=message))

    def _transmit(self, src_hoa: Ipv6Address, dst: Ipv6Address, payload: object,
                  size: int = 56) -> None:
        """Send from one of our home addresses, honoring the mobility mode."""
        if not self._charge_tx():
            return
        inner = Packet(src=src_hoa, dst=self._route_cache.get(dst, dst),
                       payload=payload, size_bytes=size)
        if self.mode is Mode.BIDIRECTIONAL_TUNNELING:
            # relay through the home agent; the care-of address never shows
            self.sim.send(Packet(src=self.coa, dst=self.ha_admin,
                                 payload=ReverseTunneled(inner=inner,
                                                         host_id=self.node_id,
                                                         auth=self.sa_tag),
                                 size_bytes=size + 40))
        else:
            self.sim.send(inner)

    def _charge_tx(self) -> bool:
        """Charge one transmission; False when the battery is (or just went) dead."""
        energy = self.energy
        if energy is None:
            return True
        return not energy.dead and energy.on_packet(self.sim.now,
                                                    PacketKind.TX_REPLY)

    # -- receive path -----------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if packet.dst != self.coa:
            # in flight to a care-of address we already abandoned; the radio
            # never sees it, so no energy moves
            self.counters.stale_dropped += 1
            return
        energy = self.energy
        if energy is not None:
            if energy.dead:
                self.counters.dead_dropped += 1
                return
            now = self.sim.now
            if energy.on_packet(now, PacketKind.RX):
                energy.on_packet(now, PacketKind.TX_ACK)
            if energy.dead:
                self.counters.dead_dropped += 1
                return
        payload = packet.payload
        kind = type(payload)
        if kind is Encapsulated:
            self._handle_inner(payload.inner, tunneled=True)
        elif kind is RouteOptimized:
            self._handle_inner(payload.inner, tunneled=False)
        else:
            self._handle_inner(packet, tunneled=False)

    def _handle_inner(self, inner: Packet, tunneled: bool) -> None:
        dst = inner.dst
        state = self.address_states.get(dst)
        if state is not None:
            if state is not AddressState.ACTIVE:
                self.counters.blocked_local_dropped += 1
                return
            alert = self.monitor.observe(dst, self.sim.now)
            if alert is not None:
                self.counters.alerts += 1
                if self.auto_block:
                    self.dispose_address(dst, reason="intrusion alert")
            if tunneled and self.mode is Mode.ROUTE_OPTIMIZATION:
                self._maybe_send_peer_bu(dst, inner.src)
        handler = self._inner_handlers.get(type(inner.payload))
        if handler is None:
            self.counters.non_hoa_dropped += 1
            return
        handler(self, inner, state)

    # inner-packet handlers: (host, packet, state of its destination)

    def _on_ping(self, inner: Packet, state: AddressState | None) -> None:
        self.counters.pings += 1
        if state is not None or inner.dst == self.coa:
            self._transmit(inner.dst, inner.src, Pong(inner.payload.seq))

    def _on_call_accept(self, inner: Packet, state: AddressState | None) -> None:
        self._finish_call(inner.payload.call_id, CallOutcome.CONNECTED)

    def _on_call_reject(self, inner: Packet, state: AddressState | None) -> None:
        self._finish_call(inner.payload.call_id, CallOutcome.REJECTED_BY_CALLEE)

    def _on_session_message(self, inner: Packet,
                            state: AddressState | None) -> None:
        session = self._sessions.get(inner.payload.request_id)
        if session is not None:
            session.on_message(inner.payload)

    def _on_management(self, inner: Packet, state: AddressState | None) -> None:
        message = inner.payload
        if message.kind is ManagementKind.HOA_GRANT and message.hoa is not None:
            self.address_states[message.hoa] = AddressState.ACTIVE
            self._pool.append(message.hoa)

    def _on_peer_binding_update(self, inner: Packet,
                                state: AddressState | None) -> None:
        self._route_cache[inner.payload.home_address] = inner.payload.care_of

    def _ignore(self, inner: Packet, state: AddressState | None) -> None:
        pass

    def _maybe_send_peer_bu(self, hoa: Ipv6Address, peer_addr: Ipv6Address) -> None:
        # Route optimization answers any tunneled packet with a binding
        # update, which is exactly how a flooding attacker learns the
        # care-of address.
        if peer_addr in self._peer_bu_sent:
            return
        self._peer_bu_sent.add(peer_addr)
        self.counters.peer_binding_updates += 1
        if not self._charge_tx():
            return
        self.sim.send(Packet(src=hoa, dst=peer_addr,
                             payload=PeerBindingUpdate(home_address=hoa,
                                                       care_of=self.coa)))

    def _on_call_request(self, inner: Packet,
                         state: AddressState | None) -> None:
        dst, request = inner.dst, inner.payload
        self.counters.calls_received += 1
        if dst == self.prime:
            # calls never land on the prime; callers must hold a disposable
            self.counters.prime_call_rejects += 1
            self._transmit(dst, request.reply_to,
                           CallReject(call_id=request.call_id,
                                      reason=PRIME_REJECT_REASON))
            return
        if self.address_states.get(dst) is AddressState.ACTIVE:
            self.counters.calls_accepted += 1
            self._active_peers[request.caller_fqdn] = request.reply_to
            self._transmit(dst, request.reply_to,
                           CallAccept(call_id=request.call_id))
            return
        self.counters.non_hoa_dropped += 1

    def _on_address_request(self, inner: Packet,
                            state: AddressState | None) -> None:
        dst, request = inner.dst, inner.payload
        if dst != self.prime:
            return
        action = self.responder.handle_request(request, self.sim.now)
        if isinstance(action, GrantAction):
            entry = self.book.setdefault(request.requester_fqdn,
                                         AddressBookEntry(request.requester_fqdn))
            entry.granted_to_peer = action.response.granted
            self._transmit(self.prime, request.reply_to, action.response, size=128)
        elif isinstance(action, ChallengeAction):
            self._transmit(self.prime, request.reply_to, action.challenge)
        elif isinstance(action, RefuseAction):
            self._transmit(self.prime, request.reply_to, action.refusal)

    _inner_handlers = {
        Ping: _on_ping,
        Pong: _ignore,
        CallRequest: _on_call_request,
        CallAccept: _on_call_accept,
        CallReject: _on_call_reject,
        AddressRequest: _on_address_request,
        AddressResponse: _on_session_message,
        HipChallengeMsg: _on_session_message,
        Refusal: _on_session_message,
        ManagementMessage: _on_management,
        BindingAck: _ignore,
        PeerBindingUpdate: _on_peer_binding_update,
    }

    # -- timers ------------------------------------------------------------------

    def on_timer(self, token: object) -> None:
        if self.energy is not None and self.energy.dead:
            return
        handler = self._timer_handlers.get(type(token))
        if handler is not None:
            handler(self, token)

    def _on_session_timer(self, token: SessionTimer) -> None:
        session = self._sessions.get(token.request_id)
        if session is not None:
            session.on_timer(token)

    def _on_call_timeout(self, token: CallTimeout) -> None:
        self._finish_call(token.call_id, CallOutcome.FAILED)

    def _on_prime_reactivate(self, token: PrimeReactivate) -> None:
        if (token.generation == self._reactivate_gen
                and self.address_states.get(self.prime) is AddressState.BLOCKED):
            self.reactivate_address(self.prime)

    def _on_window_block(self, token: WindowBlock) -> None:
        if self.address_states.get(self.prime) is AddressState.ACTIVE:
            self.dispose_address(self.prime, reason="scheduled window",
                                 auto_reactivate=False)

    def _on_window_unblock(self, token: WindowUnblock) -> None:
        self.reactivate_address(self.prime)

    _timer_handlers = {
        SessionTimer: _on_session_timer,
        CallTimeout: _on_call_timeout,
        PrimeReactivate: _on_prime_reactivate,
        WindowBlock: _on_window_block,
        WindowUnblock: _on_window_unblock,
    }

    # -- certificateless pairing ----------------------------------------------

    def pair_with(self, peer: "MobileHost", sas_bits: int = 16) -> PairResult:
        """In-person pairing: exchange keys and disposables over a SAS check."""
        if self.keys is None or peer.keys is None:
            raise ValueError("pairing requires keypairs on both hosts")
        result = run_pairing(self.sim.rng, self.keys.public, peer.keys.public,
                             sas_bits=sas_bits)
        if result.confirmed:
            ours = self.responder.grant_direct(peer.fqdn)
            theirs = peer.responder.grant_direct(self.fqdn)
            mine = self.book.setdefault(peer.fqdn, AddressBookEntry(peer.fqdn))
            mine.peer_pubkey = result.key_seen_by_initiator
            mine.peer_address = theirs
            mine.granted_to_peer = ours
            other = peer.book.setdefault(self.fqdn, AddressBookEntry(self.fqdn))
            other.peer_pubkey = result.key_seen_by_responder
            other.peer_address = ours
            other.granted_to_peer = theirs
        return result
