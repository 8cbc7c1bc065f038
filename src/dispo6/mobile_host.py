"""Mobile-node state machine: mobility, detection, address disposal.

The host keeps one prime home address (published in the name service, used
only to request disposables) and a per-correspondent set of disposable home
addresses. A sliding-window rate monitor watches traffic per home address;
when an address is flooded it is blocked at the home agent, and in
route-optimization mode the care-of address is rotated so an attacker who
learned it goes dark too. Blocking one address never touches the others.

Who learns a care-of address: the home agent, from every binding update.
In route-optimization mode, also each peer that holds a still-active
disposable, at each care-of change (if a call connected between them)
and when a packet tunneled to that disposable first arrives. The prime
never announces it, and neither does a disposed address, not even in
answer to the packet that got it disposed. In bidirectional-tunneling
mode no peer learns it.

The contact manager (book, calls, address requests) is `CallerNode`'s in
caller.py; `MobileHost` subclasses it, calls from its prime, and overrides
only the send step (battery charge, reverse tunnel) and its bookkeeping.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .addressing import (
    AddressRole,
    AddressState,
    Ipv6Address,
    NameService,
    random_iid,
)
from .caller import AddressBookEntry, CallerNode, CallOutcome
from .crypto import CertificateAuthority, Ed25519Scheme
from .distribution import (
    AddressRequest,
    ChallengeAction,
    DistributionResponder,
    GrantAction,
    HipGate,
    RefuseAction,
)
from .energy import EnergyAccount, PacketKind
from .engine import Packet, Simulator
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
    record,
)
from .monitor import IntrusionMonitor
from .sas import PairResult, run_pairing


# seconds a disposed prime stays blocked before it is tried again
PRIME_REACTIVATE_AFTER_S = 60.0
# disposables generated at attach time, ready to grant without a round trip
POOL_SIZE = 4


class Mode(Enum):
    ROUTE_OPTIMIZATION = "route_optimization"
    BIDIRECTIONAL_TUNNELING = "bidirectional_tunneling"


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


@record
class PrimeReactivate(NamedTuple):
    generation: int


@record
class WindowBlock(NamedTuple):
    """Scheduled-attack window opening: policy blocks the prime."""


@record
class WindowUnblock(NamedTuple):
    """Scheduled-attack window closing: policy reactivates the prime."""


_RECEIVED = (PacketKind.RX, PacketKind.TX_ACK)
_ANSWERED = (PacketKind.RX, PacketKind.TX_ACK, PacketKind.TX_REPLY)


def _unwrap(packet: Packet) -> tuple[Packet, bool]:
    """The logical packet inside a delivery, and whether it was tunneled."""
    payload = packet.payload
    kind = type(payload)
    if kind is Encapsulated:
        return payload.inner, True
    if kind is RouteOptimized:
        return payload.inner, False
    return packet, False


class MobileHost(CallerNode):
    def __init__(self, sim: Simulator, node_id: str, fqdn: str,
                 name_service: NameService, *,
                 mode: Mode = Mode.BIDIRECTIONAL_TUNNELING,
                 scheme: Ed25519Scheme | None = None,
                 ca: CertificateAuthority | None = None,
                 pki_required: bool = False,
                 energy: EnergyAccount | None = None,
                 detection_threshold_pps: float = 10.0,
                 detection_window_s: float = 10.0):
        keys = certificate = None
        if scheme is not None:
            keys = scheme.generate(sim.rng)
            if ca is not None:
                certificate = ca.issue(fqdn, keys.public)
        # the prime becomes this node's address once attached
        super().__init__(sim, node_id, fqdn, None, name_service,
                         scheme=scheme, keys=keys, certificate=certificate,
                         ca=ca, require_signed_response=pki_required)
        self.mode = mode
        self.energy = energy
        self.counters = HostCounters()
        self.monitor = IntrusionMonitor(detection_threshold_pps, detection_window_s)
        self.address_states: dict[Ipv6Address, AddressState] = {}
        self.coa: Ipv6Address | None = None
        self.visited_prefix: int | None = None
        self.ha: HomeAgent | None = None
        self.ha_admin: Ipv6Address | None = None
        self.sa_tag = ""
        self.responder = DistributionResponder(self, HipGate())
        self._pool: list[Ipv6Address] = []
        self._active_peers: dict[str, Ipv6Address] = {}  # fqdn -> peer address
        self._peer_bu_sent: set[Ipv6Address] = set()
        self._reactivate_gen = 0

    @property
    def prime(self) -> Ipv6Address | None:
        """The published home address; requests go here, calls never do."""
        return self.address

    # -- provisioning -------------------------------------------------------

    def attach(self, ha: HomeAgent, visited_prefix: int) -> None:
        """Register with the home agent and bring up addresses (time-0 setup)."""
        self.ha = ha
        self.ha_admin = ha.admin_address
        self.sa_tag = f"sa-{self.node_id}-{self.sim.rng.getrandbits(64):016x}"
        ha.attach_host(self.node_id, self.sa_tag)
        self.address = ha.generate_home_address(self.node_id, self.sa_tag)
        self.address_states[self.prime] = AddressState.ACTIVE
        self.visited_prefix = visited_prefix
        self.coa = Ipv6Address(visited_prefix, random_iid(self.sim.rng))
        self.sim.register_route(self.coa, self.node_id)
        ha.process_binding_update(self.node_id, self.sa_tag, self.coa)
        for _ in range(POOL_SIZE):
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
        self._emit(Packet(src=self.coa, dst=self.ha_admin,
                          payload=BindingUpdate(host_id=self.node_id,
                                                auth=self.sa_tag,
                                                care_of=self.coa)))
        if self.mode is Mode.ROUTE_OPTIMIZATION:
            # only peers with live sessions learn the new location; one
            # whose disposable was blocked is forgotten, not told
            for fqdn, peer_addr in list(self._active_peers.items()):
                hoa = self.responder.grants.get(fqdn)
                if hoa is None:
                    continue
                if self.address_states[hoa] is not AddressState.ACTIVE:
                    del self._active_peers[fqdn]
                    continue
                self.counters.peer_binding_updates += 1
                self._emit(Packet(src=hoa, dst=peer_addr,
                                  payload=PeerBindingUpdate(home_address=hoa,
                                                            care_of=self.coa)))

    # -- address lifecycle ---------------------------------------------------

    def dispose_address(self, hoa: Ipv6Address,
                        auto_reactivate: bool = True) -> AddressRole | None:
        """Block `hoa` at the home agent; in RO mode a disposable's care-of
        address is rotated too.

        Disposing the prime is allowed (it suspends the distribution
        protocol) and reported distinctly; with `auto_reactivate` the prime
        comes back after `PRIME_REACTIVATE_AFTER_S`. The care-of address
        stays, because the prime sends no binding update and so never
        reveals it.
        """
        state = self.address_states.get(hoa)
        if state is None:
            raise ValueError(f"{hoa} is not an address of {self.fqdn}")
        if state is not AddressState.ACTIVE:
            return None  # idempotent
        self.address_states[hoa] = AddressState.BLOCKED  # its holder is not told
        if self.mode is Mode.ROUTE_OPTIMIZATION and hoa != self.prime:
            # the attacker may hold the current care-of address; rotate
            # first, so the home agent's ACK goes to the one we keep
            self._configure_new_care_of()
        self._send_management(ManagementMessage(kind=ManagementKind.BLOCK_REQUEST,
                                                host_id=self.node_id,
                                                auth=self.sa_tag, hoa=hoa))
        self.monitor.clear(hoa)
        self.counters.disposals += 1
        role = AddressRole.DISPOSABLE
        if hoa == self.prime:
            role = AddressRole.PRIME
            self.counters.prime_disposals += 1
            if auto_reactivate:
                self._reactivate_gen += 1
                self.sim.call_in(PRIME_REACTIVATE_AFTER_S, self.node_id,
                                 PrimeReactivate(self._reactivate_gen))
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

    def spit_block(self, peer_fqdn: str) -> None:
        """Drop a nuisance caller: block their address, refuse re-requests."""
        self.responder.denied.add(peer_fqdn)
        self._active_peers.pop(peer_fqdn, None)
        hoa = self.responder.grants.get(peer_fqdn)
        if hoa is not None and self.address_states[hoa] is AddressState.ACTIVE:
            self.dispose_address(hoa)

    def grant_out_of_band(self, peer_fqdn: str) -> Ipv6Address | None:
        """Hand out a disposable over a side channel (in person, e-mail,
        IM); a denied peer gets none."""
        return self.responder.grant_for(peer_fqdn)

    def allocate_disposable(self) -> Ipv6Address:
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

    # -- contact-manager overrides ---------------------------------------------

    def place_call(self, peer_fqdn: str,
                   on_result: Callable[[CallOutcome], None]) -> None:
        self.counters.calls_placed += 1
        super().place_call(peer_fqdn, on_result)

    def _call_connected(self, entry: AddressBookEntry) -> None:
        # the peer learns our next care-of address in RO mode
        self._active_peers[entry.peer_fqdn] = entry.peer_address

    def _emit(self, packet: Packet) -> None:
        """Charge one transmission, then send unless the battery is (or just
        went) dead."""
        energy = self.energy
        if energy is not None and (energy.dead or not energy.on_packet(
                self.sim.now_us, PacketKind.TX_REPLY)):
            return
        self.sim.send(self._wire(packet))

    def _wire(self, packet: Packet) -> Packet:
        """In BT mode a packet from a home address is relayed by the home
        agent, so the care-of address never shows."""
        if self.mode is Mode.BIDIRECTIONAL_TUNNELING and packet.src != self.coa:
            return Packet(src=self.coa, dst=self.ha_admin,
                          payload=ReverseTunneled(inner=packet,
                                                  host_id=self.node_id,
                                                  auth=self.sa_tag),
                          size_bytes=packet.size_bytes + 40)
        return packet

    def _send_management(self, message: ManagementMessage) -> None:
        self._emit(Packet(src=self.coa, dst=self.ha_admin, payload=message))

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
            now_us = self.sim.now_us
            if energy.on_packet(now_us, PacketKind.RX):
                energy.on_packet(now_us, PacketKind.TX_ACK)
            if energy.dead:
                self.counters.dead_dropped += 1
                return
        self._handle_inner(*_unwrap(packet))

    def _handle_inner(self, inner: Packet, tunneled: bool) -> None:
        dst = inner.dst
        state = self.address_states.get(dst)
        if state is not None:
            if state is not AddressState.ACTIVE:
                self.counters.blocked_local_dropped += 1
                return
            alert = self.monitor.observe(dst, self.sim.now_us)
            if alert is not None:
                self.counters.alerts += 1
                self.dispose_address(dst)
            elif (tunneled and self.mode is Mode.ROUTE_OPTIMIZATION
                    and dst != self.prime):
                # a just-disposed address announces nothing, not even to
                # the packet that tripped the alert
                self._maybe_send_peer_bu(dst, inner.src)
        handler = self._inner_handlers.get(type(inner.payload))
        if handler is None:
            self.counters.non_hoa_dropped += 1
            return
        handler(self, inner)

    # inner-packet handlers, in addition to the contact manager's

    def _on_ping(self, inner: Packet) -> None:
        self.counters.pings += 1
        dst = inner.dst
        if dst in self.address_states or dst == self.coa:
            self._send(dst, inner.src, Pong(inner.payload.seq))

    def _on_management(self, inner: Packet) -> None:
        message = inner.payload
        if message.kind is ManagementKind.HOA_GRANT and message.hoa is not None:
            self.address_states[message.hoa] = AddressState.ACTIVE
            self._pool.append(message.hoa)

    def _ignore(self, inner: Packet) -> None:
        pass

    def _maybe_send_peer_bu(self, hoa: Ipv6Address, peer_addr: Ipv6Address) -> None:
        # Route optimization answers a tunneled packet to a disposable with
        # a binding update, which is exactly how a flooding attacker who
        # holds one learns the care-of address. The published prime never
        # answers so: any stranger could learn the location from it, and a
        # move announces no new care-of address for the prime, so peers
        # would keep sending to the stale one.
        if peer_addr in self._peer_bu_sent:
            return
        self._peer_bu_sent.add(peer_addr)
        self.counters.peer_binding_updates += 1
        self._emit(Packet(src=hoa, dst=peer_addr,
                          payload=PeerBindingUpdate(home_address=hoa,
                                                    care_of=self.coa)))

    def _on_call_request(self, inner: Packet) -> None:
        dst, request = inner.dst, inner.payload
        self.counters.calls_received += 1
        if dst == self.prime:
            # calls never land on the prime; callers must hold a disposable
            self.counters.prime_call_rejects += 1
            self._send(dst, request.reply_to,
                       CallReject(call_id=request.call_id,
                                  reason=PRIME_REJECT_REASON))
            return
        if self.address_states.get(dst) is AddressState.ACTIVE:
            self.counters.calls_accepted += 1
            self._active_peers[request.caller_fqdn] = request.reply_to
            self._send(dst, request.reply_to, CallAccept(call_id=request.call_id))
            return
        self.counters.non_hoa_dropped += 1

    def _on_address_request(self, inner: Packet) -> None:
        dst, request = inner.dst, inner.payload
        if dst != self.prime:
            return
        action = self.responder.handle_request(request, self.sim.now_us)
        if isinstance(action, GrantAction):
            self._send(dst, request.reply_to, action.response, size_bytes=128)
        elif isinstance(action, ChallengeAction):
            self._send(dst, request.reply_to, action.challenge)
        elif isinstance(action, RefuseAction):
            self._send(dst, request.reply_to, action.refusal)

    _inner_handlers = {
        **CallerNode._packet_handlers,
        Ping: _on_ping,
        Pong: _ignore,
        CallRequest: _on_call_request,
        AddressRequest: _on_address_request,
        ManagementMessage: _on_management,
        BindingAck: _ignore,
    }

    # -- flood segments (engine.py) ------------------------------------------------

    def run_split(self, packet: Packet, first_us: int, interval_us: int,
                  count: int) -> int:
        """Index of the first packet of a run that must go through on_packet:
        the one that might empty the battery, the one that trips the
        monitor, or, in RO mode, the first one from a source that has not
        had a binding update; `count` if none."""
        energy = self.energy
        if packet.dst != self.coa or (energy is not None and energy.dead):
            return count
        inner, tunneled = _unwrap(packet)
        dst = inner.dst
        state = self.address_states.get(dst)
        split = count
        if energy is not None:
            split = energy.safe_run(first_us, interval_us, count,
                                    self._run_kinds(state, dst))
        if state is AddressState.ACTIVE:
            if (tunneled and self.mode is Mode.ROUTE_OPTIMIZATION
                    and dst != self.prime and inner.src not in self._peer_bu_sent):
                return 0
            split = self.monitor.first_alert(dst, first_us, interval_us, split)
        return split

    def on_run(self, packet: Packet, first_us: int, interval_us: int,
               count: int) -> Packet | None:
        """`count` pings of a segment, none at a run_split: the counters,
        monitor, energy and reply of `count` on_packet calls."""
        counters = self.counters
        if packet.dst != self.coa:
            counters.stale_dropped += count
            return None
        energy = self.energy
        if energy is not None and energy.dead:
            counters.dead_dropped += count
            return None
        inner, _ = _unwrap(packet)
        dst = inner.dst
        state = self.address_states.get(dst)
        kinds = self._run_kinds(state, dst)
        reply = None
        if state is not None and state is not AddressState.ACTIVE:
            counters.blocked_local_dropped += count
        else:
            if state is not None:
                self.monitor.observe_run(dst, first_us, interval_us, count)
            counters.pings += count
            if kinds is _ANSWERED:
                reply = self._wire(self._addressed(dst, inner.src,
                                                   Pong(inner.payload.seq)))
        if energy is not None:
            energy.charge_run(first_us, interval_us, count, kinds)
        return reply

    def _run_kinds(self, state: AddressState | None,
                   dst: Ipv6Address) -> tuple[PacketKind, ...]:
        """What each ping of a run costs: receipt and link ACK, and the pong
        where _on_ping answers."""
        if state is AddressState.ACTIVE or (state is None and dst == self.coa):
            return _ANSWERED
        return _RECEIVED

    # -- timers ------------------------------------------------------------------

    def on_timer(self, token: object) -> None:
        if self.energy is not None and self.energy.dead:
            return
        handler = self._timer_handlers.get(type(token))
        if handler is not None:
            handler(self, token)

    def _on_prime_reactivate(self, token: PrimeReactivate) -> None:
        if (token.generation == self._reactivate_gen
                and self.address_states.get(self.prime) is AddressState.BLOCKED):
            self.reactivate_address(self.prime)

    def _on_window_block(self, token: WindowBlock) -> None:
        if self.address_states.get(self.prime) is AddressState.ACTIVE:
            self.dispose_address(self.prime, auto_reactivate=False)

    def _on_window_unblock(self, token: WindowUnblock) -> None:
        self.reactivate_address(self.prime)

    _timer_handlers = {
        **CallerNode._timer_handlers,
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
            ours = self.grant_out_of_band(peer.fqdn)
            theirs = peer.grant_out_of_band(self.fqdn)
            self.learn_address(peer.fqdn, theirs, result.key_seen_by_initiator)
            peer.learn_address(self.fqdn, ours, result.key_seen_by_responder)
        return result
