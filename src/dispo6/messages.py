"""Application-layer payload types shared by hosts, callers, and attackers."""

from dataclasses import dataclass
from typing import NamedTuple

from .addressing import Ipv6Address


def record(cls: type) -> type:
    """Give a NamedTuple the equality of a frozen dataclass: equal only to an
    instance of its own type. Per-packet types are NamedTuples because a
    tuple is built about twice as fast as a frozen dataclass."""

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    cls.__eq__ = __eq__
    cls.__ne__ = lambda self, other: not __eq__(self, other)
    cls.__hash__ = tuple.__hash__
    return cls


@record
class Ping(NamedTuple):
    """Request that provokes a reply (stand-in for echo/SYN/INVITE floods)."""

    seq: int = 0


@record
class Pong(NamedTuple):
    seq: int = 0


@dataclass(frozen=True, slots=True)
class CallRequest:
    caller_fqdn: str
    reply_to: Ipv6Address
    call_id: int


@dataclass(frozen=True, slots=True)
class CallAccept:
    call_id: int


@dataclass(frozen=True, slots=True)
class CallReject:
    call_id: int
    reason: str


#: Reject reason returned for any call placed to a prime home address.
PRIME_REJECT_REASON = "request a disposable home address"


@dataclass(frozen=True, slots=True)
class PeerBindingUpdate:
    """Route-optimization care-of address notice sent directly to a peer."""

    home_address: Ipv6Address
    care_of: Ipv6Address


@dataclass(frozen=True, slots=True)
class RouteOptimized:
    """Direct-to-care-of delivery carrying the logical home-address packet."""

    inner: object  # a Packet whose dst is the home address

