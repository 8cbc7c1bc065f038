"""Application-layer payload types shared by hosts, callers, and attackers."""

from typing import NamedTuple

from .addressing import Ipv6Address


def record(cls: type) -> type:
    """Give a NamedTuple the equality of a frozen dataclass: equal only to an
    instance of its own type, never to a plain tuple or to another record
    with the same fields, and hashed as the tuple of its fields. A
    `_check(self)` defined in the class body runs on every instance built
    by calling the class, and raises `ValueError` for bad fields.

    This is the idiom for every immutable value in dispo6, validated ones
    included. Both costs favour the tuple. At import, which every run pays,
    the dataclass decorator generates and execs the class's methods, about
    six times the cost of a NamedTuple class. Per instance, a tuple is
    built in two thirds of a frozen dataclass's time or less."""

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    cls.__eq__ = __eq__
    cls.__ne__ = lambda self, other: not __eq__(self, other)
    cls.__hash__ = tuple.__hash__
    check = cls.__dict__.get("_check")
    if check is not None:
        new = cls.__new__

        def __new__(klass, *args, **kwargs):
            self = new(klass, *args, **kwargs)
            check(self)
            return self

        cls.__new__ = __new__
    return cls


@record
class Ping(NamedTuple):
    """Request that provokes a reply (stand-in for echo/SYN/INVITE floods)."""

    seq: int = 0


@record
class Pong(NamedTuple):
    seq: int = 0


@record
class CallRequest(NamedTuple):
    caller_fqdn: str
    reply_to: Ipv6Address
    call_id: int


@record
class CallAccept(NamedTuple):
    call_id: int


@record
class CallReject(NamedTuple):
    call_id: int
    reason: str


#: Reject reason returned for any call placed to a prime home address.
PRIME_REJECT_REASON = "request a disposable home address"


@record
class PeerBindingUpdate(NamedTuple):
    """Route-optimization care-of address notice sent directly to a peer."""

    home_address: Ipv6Address
    care_of: Ipv6Address


@record
class RouteOptimized(NamedTuple):
    """Direct-to-care-of delivery carrying the logical home-address packet."""

    inner: object  # a Packet whose dst is the home address

