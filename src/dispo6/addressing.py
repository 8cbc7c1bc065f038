"""IPv6 addresses, home-address states, and the in-simulation name service."""

import ipaddress
import random
from enum import Enum

IID_BITS = 64
IID_MASK = (1 << IID_BITS) - 1


class Ipv6Address(int):
    """128-bit address as a 64-bit network prefix plus a 64-bit interface ID.

    The address is its own 128-bit integer value, so hashing, equality and
    ordering run at int speed and agree with `value`. It is immutable and
    carries no per-instance dict.
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
    def value(self) -> int:
        return int(self)

    @property
    def packed(self) -> bytes:
        return self.to_bytes(16, "big")

    @classmethod
    def from_value(cls, value: int) -> "Ipv6Address":
        return cls(value >> IID_BITS, value & IID_MASK)

    @classmethod
    def parse(cls, text: str) -> "Ipv6Address":
        return cls.from_value(int(ipaddress.IPv6Address(text)))

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


class NameAuthorizationError(Exception):
    """A node other than the record owner tried to change the record."""


class NameRecord:
    __slots__ = ("prime", "owner")

    def __init__(self, prime: Ipv6Address, owner: str):
        self.prime = prime
        self.owner = owner


class NameService:
    """Maps FQDNs to prime home addresses.

    Stands in for DNS plus dynamic DNS: updates are owner-authorized and
    visible to the next lookup (no caching or TTLs).
    """

    def __init__(self):
        self._records: dict[str, NameRecord] = {}

    def register(self, fqdn: str, prime: Ipv6Address, owner: str) -> None:
        if not fqdn:
            raise ValueError("empty FQDN")
        if fqdn in self._records:
            raise ValueError(f"duplicate FQDN registration: {fqdn}")
        self._records[fqdn] = NameRecord(prime=prime, owner=owner)

    def resolve(self, fqdn: str) -> Ipv6Address:
        try:
            return self._records[fqdn].prime
        except KeyError:
            raise UnknownNameError(fqdn) from None

    def update_prime(self, fqdn: str, new_prime: Ipv6Address, caller: str) -> None:
        record = self._records.get(fqdn)
        if record is None:
            raise UnknownNameError(fqdn)
        if record.owner != caller:
            raise NameAuthorizationError(f"{caller} does not own {fqdn}")
        record.prime = new_prime
