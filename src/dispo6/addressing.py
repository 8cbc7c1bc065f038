"""IPv6 addresses, home-address states, and the in-simulation name service."""

import ipaddress
import random
from enum import Enum

IID_BITS = 64
IID_MASK = (1 << IID_BITS) - 1


class Ipv6Address(int):
    """128-bit address as a 64-bit network prefix plus a 64-bit interface ID.

    The address is its own 128-bit integer value, so hashing, equality and
    ordering run at int speed. It is immutable and carries no per-instance
    dict.
    """

    __slots__ = ()

    def __new__(cls, prefix: int, iid: int) -> "Ipv6Address":
        return int.__new__(cls, (prefix << IID_BITS) | iid)

    def __init__(self, prefix: int, iid: int):
        if not 0 <= prefix <= IID_MASK:
            raise ValueError(f"prefix out of 64-bit range: {prefix:#x}")
        if not 0 <= iid <= IID_MASK:
            raise ValueError(f"iid out of 64-bit range: {iid:#x}")

    __hash__ = int.__hash__

    def __getnewargs__(self) -> tuple[int, int]:
        # pickle and copy rebuild the address through __new__(prefix, iid)
        return (self.prefix, self.iid)

    @property
    def prefix(self) -> int:
        return self >> IID_BITS

    @property
    def iid(self) -> int:
        return self & IID_MASK

    @property
    def packed(self) -> bytes:
        return self.to_bytes(16, "big")

    def __repr__(self) -> str:
        return f"Ipv6Address(prefix={self.prefix}, iid={self.iid})"

    def __str__(self) -> str:
        # Canonical log format: eight lowercase 4-digit hex groups, no "::".
        return ipaddress.IPv6Address(int(self)).exploded


def random_iid(rng: random.Random) -> int:
    """Uniform 64-bit interface identifier. Collisions are the caller's problem."""
    return rng.getrandbits(IID_BITS)


class AddressState(Enum):
    ACTIVE = "active"
    BLOCKED = "blocked"
    DECONFIGURED = "deconfigured"


class UnknownNameError(Exception):
    """Lookup of a name that was never registered."""


class NameService:
    """Maps FQDNs to prime home addresses.

    Stands in for DNS: a registered name resolves to its prime at once
    (no caching or TTLs).
    """

    def __init__(self):
        self._primes: dict[str, Ipv6Address] = {}

    def register(self, fqdn: str, prime: Ipv6Address) -> None:
        if not fqdn:
            raise ValueError("empty FQDN")
        if fqdn in self._primes:
            raise ValueError(f"duplicate FQDN registration: {fqdn}")
        self._primes[fqdn] = prime

    def resolve(self, fqdn: str) -> Ipv6Address:
        try:
            return self._primes[fqdn]
        except KeyError:
            raise UnknownNameError(fqdn) from None
