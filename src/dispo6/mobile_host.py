"""Mobile-node state machine: mobility, detection, address disposal.

The host keeps one prime home address (published in the name service, used
only to request disposables) and a per-correspondent set of disposable home
addresses. A sliding-window rate monitor watches traffic per home address;
when an address is flooded it is blocked at the home agent, and in
route-optimization mode the care-of address is rotated so an attacker who
learned it goes dark too. Blocking one address never touches the others.

Who learns a care-of address: the home agent, from every binding update.
In route-optimization mode, also the peers of a still-active disposable:
at each care-of change, the one that last connected a call on it, and
the source of a packet tunneled to it, unless that source was the last
told through it. The prime never announces it, and neither does a
disposed address, not even in answer to the packet that got it disposed.
In bidirectional-tunneling mode no peer learns it. Each map behind this
is keyed by a disposable the host holds, so its address table bounds
them, and a correspondent rebinds only a home address it holds
(caller.py).

The contact manager (book, calls, address requests) is `CallerNode`'s in
caller.py; `MobileHost` subclasses it and overrides only the send step
(battery charge, reverse tunnel), its bookkeeping, and the address it
calls and asks a peer from: its grant to that peer, made at first contact
if there is none, while that is active, else the prime.
"""

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .addressing import AddressState, Ipv6Address, NameService, random_iid
from .caller import AddressBookEntry, CallerNode, CallOutcome
from .crypto import CertificateAuthority, Ed25519Scheme
from .distribution import AddressRequest, DistributionResponder, HipGate
from .energy import DEFAULT_PARAMS, Battery, EnergyAccount, PacketKind
from .engine import US_PER_SECOND, Packet, Simulator
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
    _tuple_new,
    record,
)
from .monitor import DETECTION_THRESHOLD_PPS, IntrusionMonitor

if TYPE_CHECKING:
    from .sas import PairResult


# the address plan of a scenario run and of `dispo6 drain`
HOME_PREFIX = 0x20010DB800010000
CORRESPONDENT_PREFIX = 0x20010DB800CC0000
VISITED_PREFIX = 0x20010DB801000000
VICTIM_FQDN = "alice.home.example"
# the victim's radio idles this long before power save (energy model on)
SLEEP_TIMEOUT_S = 10.0
# how long a disposed prime stays blocked before it is tried again
PRIME_REACTIVATE_AFTER_US = 60 * US_PER_SECOND
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
class PrimeReactivate:
    generation: int


@record
class WindowBlock:
    """Scheduled-attack window opening: policy blocks the prime until
    `closes_us`."""

    closes_us: int


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
                 detection_threshold_pps: float = DETECTION_THRESHOLD_PPS):
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
        self.monitor = IntrusionMonitor(detection_threshold_pps)
        self.address_states: dict[Ipv6Address, AddressState] = {}
        self.coa: Ipv6Address | None = None
        self.visited_prefix: int | None = None
        self.ha: HomeAgent | None = None
        self.ha_admin: Ipv6Address | None = None
        self.sa_tag = ""
        self.responder = DistributionResponder(self, HipGate())
        self._pool: list[Ipv6Address] = []
        # RO mode only, each keyed by a disposable of ours: the peer that
        # last connected a call on it, whom care-of rotation tells, and the
        # last source told our care-of address through it
        self._active_peers: dict[Ipv6Address, Ipv6Address] = {}
        self._peer_bu_sent: dict[Ipv6Address, Ipv6Address] = {}
        self._reactivate_gen = 0
        # _run_reply's last (inner packet, route-cache entry, reply)
        self._last_reply: tuple | None = None

    @property
    def prime(self) -> Ipv6Address | None:
        """The published home address; requests go here, calls never do."""
        return self.address

    # -- provisioning -------------------------------------------------------

    def attach(self, ha: HomeAgent, visited_prefix: int) -> None:
        """Register with the home agent and bring up addresses (time-0 setup)."""
        self.ha = ha
        self.ha_admin = ha.admin_address
        self._last_reply = None
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
        self.name_service.register(self.fqdn, self.prime)

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
        self._last_reply = None
        self.counters.binding_updates += 1
        self._emit(Packet(src=self.coa, dst=self.ha_admin,
                          payload=BindingUpdate(host_id=self.node_id,
                                                auth=self.sa_tag,
                                                care_of=self.coa)))
        if self.mode is Mode.ROUTE_OPTIMIZATION:
            # only peers with live sessions learn the new location; one
            # whose disposable was blocked is forgotten, not told
            for hoa, peer_addr in list(self._active_peers.items()):
                if self.address_states[hoa] is not AddressState.ACTIVE:
                    del self._active_peers[hoa]
                    continue
                self._bind_peer(hoa, peer_addr)

    # -- address lifecycle ---------------------------------------------------

    def dispose_address(self, hoa: Ipv6Address,
                        auto_reactivate: bool = True) -> None:
        """Block `hoa` at the home agent; in RO mode a disposable's care-of
        address is rotated too.

        Disposing the prime is allowed (it suspends the distribution
        protocol) and counted apart, in `prime_disposals`; with
        `auto_reactivate` the prime comes back after
        `PRIME_REACTIVATE_AFTER_US`. The care-of address
        stays, because the prime sends no binding update and so never
        reveals it.
        """
        state = self.address_states.get(hoa)
        if state is None:
            raise ValueError(f"{hoa} is not an address of {self.fqdn}")
        if state is not AddressState.ACTIVE:
            return  # idempotent
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
        if hoa == self.prime:
            self.counters.prime_disposals += 1
            if auto_reactivate:
                self._reactivate_prime_at(self.sim.now_us
                                          + PRIME_REACTIVATE_AFTER_US)

    def _reactivate_prime_at(self, fire_us: int) -> None:
        """Reopen the prime at `fire_us`, voiding any reopening pending."""
        self._reactivate_gen += 1
        self.sim.call_at(fire_us, self.node_id,
                         PrimeReactivate(self._reactivate_gen))

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
        hoa = self.responder.grants.get(peer_fqdn)
        if hoa is not None and self.address_states[hoa] is AddressState.ACTIVE:
            self.dispose_address(hoa)

    def grant_out_of_band(self, peer_fqdn: str) -> Ipv6Address | None:
        """Hand out a disposable over a side channel (in person, e-mail,
        IM); a denied peer gets none."""
        return self.responder.grant_for(peer_fqdn)

    def allocate_disposable(self) -> Ipv6Address:
        """A disposable from the pool, refilled by one HOA_REQUEST. On a
        miss the address is generated at once and nothing is requested:
        the refills in flight for the addresses taken bring the pool back
        to `POOL_SIZE`."""
        if not self._pool:
            self.counters.pool_misses += 1
            hoa = self.ha.generate_home_address(self.node_id, self.sa_tag)
            self.address_states[hoa] = AddressState.ACTIVE
            return hoa
        self._send_management(_tuple_new(ManagementMessage, (
            ManagementKind.HOA_REQUEST, self.node_id, self.sa_tag, None, True)))
        return self._pool.pop(0)

    # -- contact-manager overrides ---------------------------------------------

    def place_call(self, peer_fqdn: str,
                   on_result: Callable[[CallOutcome], None]) -> None:
        self.counters.calls_placed += 1
        super().place_call(peer_fqdn, on_result)

    def _calls_from(self, peer_fqdn: str) -> Ipv6Address | None:
        # the peer answers there, and it stays open while the prime is
        # blocked; a peer with no grant yet gets one, a denied peer none
        hoa = self.responder.grants.get(peer_fqdn)
        if hoa is None:
            return self.responder.grant_for(peer_fqdn)
        if self.address_states.get(hoa) is AddressState.ACTIVE:
            return hoa

    def _call_connected(self, entry: AddressBookEntry) -> None:
        # the peer learns our next care-of address in RO mode
        hoa = self.responder.grants.get(entry.peer_fqdn)
        if self.mode is Mode.ROUTE_OPTIMIZATION and hoa is not None:
            self._active_peers[hoa] = entry.peer_address

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
            return _tuple_new(Packet, (
                self.coa, self.ha_admin,
                _tuple_new(ReverseTunneled, (packet, self.node_id, self.sa_tag))))
        return packet

    def _send_management(self, message: ManagementMessage) -> None:
        self._emit(_tuple_new(Packet, (self.coa, self.ha_admin, message)))

    # -- receive path -----------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if packet.dst != self.coa:
            # in flight to a care-of address we already abandoned; the radio
            # never sees it, so no energy moves
            self.counters.stale_dropped += 1
            return
        energy = self.energy
        if energy is not None and (energy.dead or not (
                energy.on_packet(self.sim.now_us, PacketKind.RX)
                and energy.on_packet(self.sim.now_us, PacketKind.TX_ACK))):
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
            if self.monitor.observe(dst, self.sim.now_us):
                self.counters.alerts += 1
                self.dispose_address(dst)
            elif self._owes_binding(inner, tunneled):
                # a just-disposed address announces nothing, not even to
                # the packet that tripped the alert
                self._peer_bu_sent[dst] = inner.src
                self._bind_peer(dst, inner.src)
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
            self._send(dst, inner.src, Pong())

    def _on_management(self, inner: Packet) -> None:
        message = inner.payload
        # like the agent, the host honours only its security-association tag
        if (message.kind is ManagementKind.HOA_GRANT
                and message.auth == self.sa_tag and message.hoa is not None):
            self.address_states[message.hoa] = AddressState.ACTIVE
            self._pool.append(message.hoa)

    def _ignore(self, inner: Packet) -> None:
        pass

    def _owes_binding(self, inner: Packet, tunneled: bool) -> bool:
        """Whether `inner`, to one of our active addresses, earns its source
        a binding update: it was tunneled to a disposable in RO mode, and
        its source is not the last one told through that disposable."""
        # Route optimization answers a tunneled packet to a disposable with
        # a binding update, which is exactly how a flooding attacker who
        # holds one learns the care-of address. The published prime never
        # answers so: any stranger could learn the location from it, and a
        # move announces no new care-of address for the prime, so peers
        # would keep sending to the stale one.
        return (tunneled and self.mode is Mode.ROUTE_OPTIMIZATION
                and inner.dst != self.address
                and self._peer_bu_sent.get(inner.dst) != inner.src)

    def _bind_peer(self, hoa: Ipv6Address, peer_addr: Ipv6Address) -> None:
        """Tell `peer_addr` our care-of address for `hoa`."""
        self.counters.peer_binding_updates += 1
        self._emit(Packet(src=hoa, dst=peer_addr,
                          payload=PeerBindingUpdate(home_address=hoa,
                                                    care_of=self.coa)))

    def _on_call_request(self, inner: Packet) -> None:
        dst, request = inner.dst, inner.payload
        self.counters.calls_received += 1
        if dst == self.address:
            # calls never land on the prime; callers must hold a disposable
            self.counters.prime_call_rejects += 1
            self._send(dst, request.reply_to, _tuple_new(
                CallReject, (request.call_id, PRIME_REJECT_REASON)))
            return
        if self.address_states.get(dst) is AddressState.ACTIVE:
            self.counters.calls_accepted += 1
            if self.mode is Mode.ROUTE_OPTIMIZATION:
                self._active_peers[dst] = request.reply_to
            self._send(dst, request.reply_to,
                       _tuple_new(CallAccept, (request.call_id,)))
            return
        self.counters.non_hoa_dropped += 1

    def _on_address_request(self, inner: Packet) -> None:
        dst, request = inner.dst, inner.payload
        if dst != self.address:
            return
        reply = self.responder.handle_request(request, self.sim.now_us)
        if reply is not None:
            self._send(dst, request.reply_to, reply)

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
        """Index of the first ping of a run that must go through on_packet:
        the one that might empty the battery (charged as `_answers` says),
        the one that trips the monitor, or 0 when the run's source is owed
        a binding update (`_owes_binding`); `count` if none."""
        energy = self.energy
        if packet.dst != self.coa or (energy is not None and energy.dead):
            return count
        inner, tunneled = _unwrap(packet)
        dst = inner.dst
        state = self.address_states.get(dst)
        split = count
        if energy is not None:
            split = energy.safe_run(first_us, interval_us, count,
                                    self._answers(state, dst))
        if state is AddressState.ACTIVE:
            if self._owes_binding(inner, tunneled):
                return 0
            split = self.monitor.first_alert(dst, first_us, interval_us, split)
        return split

    def on_run(self, packet: Packet, first_us: int, interval_us: int,
               count: int) -> Packet | None:
        """`count` pings of a segment, none at a run_split: the counters,
        monitor, energy and reply of `count` on_packet calls, each ping
        charged and answered as `_answers` says. A run of no pings moves
        none of them."""
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
        answered = self._answers(state, dst)
        reply = self._run_reply(inner) if answered else None
        if not count:
            return reply
        if state is not None and state is not AddressState.ACTIVE:
            counters.blocked_local_dropped += count
        else:
            if state is not None:
                self.monitor.observe_run(dst, first_us, interval_us, count)
            counters.pings += count
        if energy is not None:
            energy.charge_run(first_us, interval_us, count, answered)
        return reply

    def _run_reply(self, inner: Packet) -> Packet:
        """The pong _on_ping sends for `inner`, as it goes on the wire; the
        last one is reused while `inner` is the same object and the source's
        route-cache entry is equal. The care-of address, agent and SA tag
        it also reads change only at `attach` and at a move, which clear it.
        Without the reuse `flood_drain` wall_s was 0.1578 s, not 0.1488 s."""
        route = self._route_cache.get(inner.src)
        last = self._last_reply
        if last is not None and last[0] is inner and last[1] == route:
            return last[2]
        reply = self._wire(self._addressed(inner.dst, inner.src, Pong()))
        self._last_reply = (inner, route, reply)
        return reply

    def _answers(self, state: AddressState | None, dst: Ipv6Address) -> bool:
        """Whether a run's pings to `dst`, in `state`, are answered: at an
        active home address or at the care-of address. No run holds the
        ping that trips the alert, which _on_ping answers from the address
        it has just disposed."""
        return state is AddressState.ACTIVE or (state is None and dst == self.coa)

    # -- timers ------------------------------------------------------------------

    def on_timer(self, token: object) -> None:
        if self.energy is not None and self.energy.dead:
            return
        handler = self._timer_handlers.get(type(token))
        if handler is not None:
            handler(self, token)

    def _on_prime_reactivate(self, token: PrimeReactivate) -> None:
        if token.generation == self._reactivate_gen:
            self.reactivate_address(self.prime)

    def _on_window_block(self, token: WindowBlock) -> None:
        # a prime an alert already blocked stays blocked to the window's end
        self.dispose_address(self.prime, auto_reactivate=False)
        self._reactivate_prime_at(token.closes_us)

    _timer_handlers = {
        **CallerNode._timer_handlers,
        PrimeReactivate: _on_prime_reactivate,
        WindowBlock: _on_window_block,
    }

    # -- certificateless pairing ----------------------------------------------

    def pair_with(self, peer: "MobileHost") -> "PairResult":
        """In-person pairing: exchange keys and disposables over a SAS check."""
        # `sas` loads here, not with this module: every run imports this
        # module, and none pairs
        from .sas import run_pairing

        if self.keys is None or peer.keys is None:
            raise ValueError("pairing requires keypairs on both hosts")
        result = run_pairing(self.sim.rng, self.keys.public, peer.keys.public)
        if result.confirmed:
            ours = self.grant_out_of_band(peer.fqdn)
            theirs = peer.grant_out_of_band(self.fqdn)
            self.learn_address(peer.fqdn, theirs, result.key_seen_by_initiator)
            peer.learn_address(self.fqdn, ours, result.key_seen_by_responder)
        return result


def attached_victim(sim: Simulator, names: NameService, on_battery: bool,
                    **options) -> MobileHost:
    """The victim of a scenario run and of `dispo6 drain`: `VICTIM_FQDN`,
    attached to its home agent, on a full battery whose radio naps after
    `SLEEP_TIMEOUT_S` when `on_battery`. `options` go to `MobileHost`."""
    energy = None
    if on_battery:
        energy = EnergyAccount(Battery(), DEFAULT_PARAMS, SLEEP_TIMEOUT_S, 0)
    victim = MobileHost(sim, "victim", VICTIM_FQDN, names, energy=energy,
                        **options)
    victim.attach(HomeAgent(sim, "home-agent", HOME_PREFIX), VISITED_PREFIX)
    return victim
