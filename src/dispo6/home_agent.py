"""Home-agent node: address allocation, binding cache, interception, blocking.

The agent owns one /64 home prefix. Every packet whose destination falls in
the prefix lands here; active home addresses are tunneled to the owner's
current care-of address, blocked and unknown ones are dropped with no error
to the sender. Host-to-agent management runs over an authenticated channel
modeled as a shared opaque security-association tag: messages with a wrong
tag are silently ignored, by the agent and by the host alike.
"""

from dataclasses import dataclass
from enum import Enum

from .addressing import AddressState, Ipv6Address, random_iid
from .engine import Node, Packet, Simulator
from .messages import _tuple_new, record

ADMIN_IID = 1
MAX_ALLOCATION_ATTEMPTS = 128


class ManagementKind(Enum):
    HOA_REQUEST = "hoa_request"
    HOA_GRANT = "hoa_grant"
    BLOCK_REQUEST = "block_request"
    REACTIVATE_REQUEST = "reactivate_request"
    ACK = "ack"


@record
class ManagementMessage:
    """Host/agent management protocol unit, honored only with a valid tag."""

    kind: ManagementKind
    host_id: str
    auth: str
    hoa: Ipv6Address | None = None
    ok: bool = True


@record
class BindingUpdate:
    """Care-of address report; authenticated like management traffic."""

    host_id: str
    auth: str
    care_of: Ipv6Address


@record
class BindingAck:
    """Sent only when a binding update is honoured."""


@record
class Encapsulated:
    """Agent-to-host tunnel wrapper around an intercepted packet."""

    inner: Packet


@record
class ReverseTunneled:
    """Host-to-agent wrapper; the agent decapsulates and forwards."""

    inner: Packet
    host_id: str
    auth: str


@dataclass(slots=True)
class AgentCounters:
    intercepted: int = 0
    tunneled: int = 0
    dropped_blocked: int = 0
    dropped_unknown: int = 0
    rejected_management: int = 0

    def conserved(self) -> bool:
        return self.intercepted == (self.tunneled + self.dropped_blocked
                                    + self.dropped_unknown)


class AddressEntry:
    __slots__ = ("owner", "state")

    def __init__(self, owner: str, state: AddressState):
        self.owner = owner
        self.state = state


class HostBinding:
    __slots__ = ("sa_tag", "care_of")

    def __init__(self, sa_tag: str):
        self.sa_tag = sa_tag
        self.care_of: Ipv6Address | None = None


class AgentError(Exception):
    """A management call refused: an unknown host or wrong tag, an address
    the host does not own, a second attach, or no free identifier."""


class HomeAgent(Node):
    def __init__(self, sim: Simulator, node_id: str, prefix: int):
        super().__init__(sim, node_id)
        self.prefix = prefix
        self.admin_address = Ipv6Address(prefix, ADMIN_IID)
        self.counters = AgentCounters()
        self._hosts: dict[str, HostBinding] = {}
        self._entries: dict[Ipv6Address, AddressEntry] = {}
        # the last packet _tunneled built
        self._last_tunnel: Packet | None = None
        sim.register_prefix_route(prefix, node_id)

    # -- registration -------------------------------------------------------

    def attach_host(self, host_id: str, sa_tag: str) -> None:
        if host_id in self._hosts:
            raise AgentError(f"host {host_id} already attached")
        self._hosts[host_id] = HostBinding(sa_tag=sa_tag)

    def _authenticated(self, host_id: str, auth: str) -> None:
        if not self._sa_valid(host_id, auth):
            raise AgentError(f"unknown host or bad security-association tag: {host_id}")

    # -- management operations ----------------------------------------------

    def generate_home_address(self, host_id: str, auth: str) -> Ipv6Address:
        """Allocate a fresh collision-checked home address bound to the host."""
        self._authenticated(host_id, auth)
        for _ in range(MAX_ALLOCATION_ATTEMPTS):
            candidate = Ipv6Address(self.prefix, random_iid(self.sim.rng))
            if candidate.iid == ADMIN_IID or candidate in self._entries:
                continue
            self._entries[candidate] = AddressEntry(
                owner=host_id, state=AddressState.ACTIVE)
            return candidate
        raise AgentError("could not find a free interface identifier")

    def process_binding_update(self, host_id: str, auth: str,
                               care_of: Ipv6Address) -> None:
        """Move every home address of the host (blocked ones included) to `care_of`."""
        self._authenticated(host_id, auth)
        self._hosts[host_id].care_of = care_of

    def block_address(self, host_id: str, auth: str, hoa: Ipv6Address) -> bool:
        return self._set_state(host_id, auth, hoa, AddressState.BLOCKED)

    def reactivate_address(self, host_id: str, auth: str, hoa: Ipv6Address) -> bool:
        return self._set_state(host_id, auth, hoa, AddressState.ACTIVE)

    def deconfigure_address(self, host_id: str, auth: str, hoa: Ipv6Address) -> None:
        """Terminal removal; unlike blocking there is no way back."""
        self._set_state(host_id, auth, hoa, AddressState.DECONFIGURED)

    def _set_state(self, host_id: str, auth: str, hoa: Ipv6Address,
                   state: AddressState) -> bool:
        """Put the host's `hoa` in `state`; False, with nothing changed, once
        it is deconfigured."""
        self._authenticated(host_id, auth)
        entry = self._entries.get(hoa)
        if entry is None or entry.owner != host_id:
            raise AgentError(f"{hoa} is not a home address of {host_id}")
        if entry.state is AddressState.DECONFIGURED:
            return False
        entry.state = state
        return True

    # -- queries --------------------------------------------------------------

    def state_of(self, hoa: Ipv6Address) -> AddressState | None:
        entry = self._entries.get(hoa)
        return entry.state if entry else None

    # -- data path ---------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if packet.dst != self.admin_address:
            self.intercept(packet)
            return
        payload = packet.payload
        kind = type(payload)
        if kind is ReverseTunneled:
            self.reverse_tunnel(payload.host_id, payload.auth, payload.inner)
        elif kind is BindingUpdate:
            self._on_binding_update(payload)
        elif kind is ManagementMessage:
            self._on_management(payload)

    def intercept(self, packet: Packet) -> None:
        """Tunnel to the owner's care-of address, or drop in silence."""
        tunneled = self._intercept(packet, 1)
        if tunneled is not None:
            self.sim.send(tunneled)

    def _intercept(self, packet: Packet, count: int) -> Packet | None:
        """Count `count` copies of `packet` in; what each is tunneled as,
        or None when they are dropped."""
        counters = self.counters
        counters.intercepted += count
        tunneled = self._tunneled(packet)
        if tunneled is not None:
            counters.tunneled += count
        elif self.state_of(packet.dst) is AddressState.BLOCKED:
            counters.dropped_blocked += count
        else:
            counters.dropped_unknown += count
        return tunneled

    def _tunneled(self, packet: Packet) -> Packet | None:
        """The tunnel packet for `packet`, None when it is not tunneled.
        A segment step hands every hop the same packet object again, so
        the last tunnel packet is reused while the packet to tunnel is the
        same object and the care-of address, looked up on every call, is
        equal; its source, the agent's address, never changes. Without
        the reuse `flood_drain` wall_s was 0.1540 s, not 0.1488 s."""
        entry = self._entries.get(packet.dst)
        if entry is None or entry.state is not AddressState.ACTIVE:
            return None
        care_of = self._hosts[entry.owner].care_of
        if care_of is None:
            return None
        last = self._last_tunnel
        if (last is not None and last.payload.inner is packet
                and last.dst == care_of):
            return last
        last = self._last_tunnel = _tuple_new(Packet, (
            self.admin_address, care_of, _tuple_new(Encapsulated, (packet,))))
        return last

    def reverse_tunnel(self, host_id: str, auth: str, inner: Packet) -> bool:
        """Decapsulate and forward a host's outbound packet.

        The inner source must be a home address of the host. Blocked
        addresses still relay: blocking filters the inbound direction only.
        """
        if not self._relayed(host_id, auth, inner, 1):
            return False
        self.sim.send(inner)
        return True

    def _relayed(self, host_id: str, auth: str, inner: Packet,
                 count: int) -> bool:
        """Whether `count` reverse tunnels of `inner` relay it; a bad
        security-association tag counts `count` rejections."""
        if not self._sa_valid(host_id, auth):
            self.counters.rejected_management += count
            return False
        entry = self._entries.get(inner.src)
        return (entry is not None and entry.owner == host_id
                and entry.state is not AddressState.DECONFIGURED)

    def _sa_valid(self, host_id: str, auth: str) -> bool:
        binding = self._hosts.get(host_id)
        return binding is not None and binding.sa_tag == auth

    # -- flood segments (engine.py) -------------------------------------------

    def on_run(self, packet: Packet, first_us: int, interval_us: int,
               count: int) -> Packet | None:
        """`count` packets of a segment: the counters of `count` on_packet
        calls, and the packet forwarded for each."""
        if packet.dst != self.admin_address:
            return self._intercept(packet, count)
        payload = packet.payload
        if type(payload) is ReverseTunneled and self._relayed(
                payload.host_id, payload.auth, payload.inner, count):
            return payload.inner
        return None

    def _on_binding_update(self, payload: BindingUpdate) -> None:
        try:
            self.process_binding_update(payload.host_id, payload.auth,
                                        payload.care_of)
        except AgentError:
            self.counters.rejected_management += 1
            return
        self.sim.send(Packet(src=self.admin_address, dst=payload.care_of,
                             payload=BindingAck()))

    def _on_management(self, payload: ManagementMessage) -> None:
        try:
            reply = self._apply_management(payload)
        except AgentError:
            # Unauthenticated or malformed requests are never honored and
            # never answered.
            self.counters.rejected_management += 1
            return
        care_of = self._hosts[payload.host_id].care_of
        if care_of is not None:
            self.sim.send(_tuple_new(Packet, (self.admin_address, care_of,
                                              reply)))

    def _apply_management(self, msg: ManagementMessage) -> ManagementMessage:
        if msg.kind is ManagementKind.HOA_REQUEST:
            hoa = self.generate_home_address(msg.host_id, msg.auth)
            return _tuple_new(ManagementMessage, (
                ManagementKind.HOA_GRANT, msg.host_id, msg.auth, hoa, True))
        if msg.kind is ManagementKind.BLOCK_REQUEST:
            ok = self.block_address(msg.host_id, msg.auth, msg.hoa)
        elif msg.kind is ManagementKind.REACTIVATE_REQUEST:
            ok = self.reactivate_address(msg.host_id, msg.auth, msg.hoa)
        else:
            self._authenticated(msg.host_id, msg.auth)
            ok = False
        return _tuple_new(ManagementMessage, (ManagementKind.ACK, msg.host_id,
                                              msg.auth, msg.hoa, ok))
