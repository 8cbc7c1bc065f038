import ipaddress
import random

import pytest
from scipy.stats import chisquare

from dispo6.addressing import (
    Ipv6Address,
    NameService,
    UnknownNameError,
    random_iid,
)


class TestIpv6Address:
    def test_width_checks(self):
        with pytest.raises(ValueError):
            Ipv6Address(1 << 64, 0)
        with pytest.raises(ValueError):
            Ipv6Address(0, -1)

    def test_text_form_eight_lowercase_groups(self):
        address = Ipv6Address(0x20010DB8_0001_0000, 0x0000_0000_0000_00AB)
        text = str(address)
        assert text == "2001:0db8:0001:0000:0000:0000:0000:00ab"
        assert text.count(":") == 7
        assert text == text.lower()

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(500):
            address = Ipv6Address(rng.getrandbits(64), rng.getrandbits(64))
            assert int(ipaddress.IPv6Address(str(address))) == address

    def test_value_packed_consistency(self):
        address = Ipv6Address(0x1234, 0x5678)
        assert int(address) == (0x1234 << 64) | 0x5678
        assert int.from_bytes(address.packed, "big") == address


class TestRandomIid:
    def test_top_byte_uniformity_chi_square(self):
        # distribution oracle: chi-square over the top byte at alpha = 0.01
        rng = random.Random(1234)
        counts = [0] * 256
        draws = 100_000
        for _ in range(draws):
            counts[random_iid(rng) >> 56] += 1
        result = chisquare(counts)
        assert result.pvalue > 0.01

    def test_pool_fraction_negligible(self):
        # 10,000 hosts x 200 peers in one /64
        in_use = 10_000 * 200
        fraction = in_use / 2**64
        assert fraction == pytest.approx(1.084e-13, rel=1e-3)
        assert fraction < 2e-12  # well under the advertised ballpark

    def test_birthday_bound_for_two_million_addresses(self):
        n = 2_000_000
        collision_bound = n * (n - 1) / 2 / 2**64
        assert collision_bound < 1.2e-7

    def test_same_seed_same_stream(self):
        a = random.Random(5)
        b = random.Random(5)
        assert [random_iid(a) for _ in range(10)] == [random_iid(b) for _ in range(10)]


class TestNameService:
    def prime(self, iid=1):
        return Ipv6Address(0x20010DB8_0001_0000, iid)

    def test_register_then_resolve(self):
        names = NameService()
        names.register("alice.example", self.prime())
        assert names.resolve("alice.example") == self.prime()

    def test_unknown_name(self):
        names = NameService()
        with pytest.raises(UnknownNameError):
            names.resolve("nobody.example")

    def test_duplicate_and_empty_names_rejected(self):
        names = NameService()
        names.register("alice.example", self.prime())
        with pytest.raises(ValueError):
            names.register("alice.example", self.prime(2))
        with pytest.raises(ValueError):
            names.register("", self.prime(3))
        assert names.resolve("alice.example") == self.prime()
