import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from dispo6 import crypto
from dispo6.addressing import Ipv6Address
from dispo6.adversary import AttackSchedule, Flooder, run_scheduled_prime_attack
from dispo6.caller import CallOutcome, StartCall
from dispo6.crypto import (
    CertificateAuthority,
    Certificate,
    Ed25519Scheme,
    KeyPair,
    encode_fields,
)
from dispo6.engine import SimTime
from dispo6.mobile_host import Mode
from dispo6.scenario import ScenarioConfig, run_scenario
from conftest import ATTACKER_PREFIX
from test_mobile_host import make_caller, make_host


class TestEncodeFields:
    def test_length_prefix_keeps_fields_apart(self):
        # would collide under plain concatenation
        assert encode_fields(b"ab", b"c") != encode_fields(b"a", b"bc")
        assert encode_fields(b"", b"x") != encode_fields(b"x", b"")

    def test_deterministic(self):
        assert encode_fields(b"a", b"b") == encode_fields(b"a", b"b")


class TestEd25519:
    def test_sign_verify_roundtrip(self):
        scheme = Ed25519Scheme()
        keys = scheme.generate(random.Random(1))
        message = b"some transcript"
        signature = scheme.sign(keys, message)
        assert scheme.verify(keys.public, message, signature)

    def test_tampered_message_or_signature_fails(self):
        scheme = Ed25519Scheme()
        keys = scheme.generate(random.Random(1))
        signature = scheme.sign(keys, b"hello")
        assert not scheme.verify(keys.public, b"hellO", signature)
        bad = bytes([signature[0] ^ 1]) + signature[1:]
        assert not scheme.verify(keys.public, b"hello", bad)

    def test_wrong_key_fails(self):
        scheme = Ed25519Scheme()
        keys = scheme.generate(random.Random(1))
        other = scheme.generate(random.Random(2))
        signature = scheme.sign(keys, b"hello")
        assert not scheme.verify(other.public, b"hello", signature)

    def test_seeded_generation_is_reproducible(self):
        scheme = Ed25519Scheme()
        assert (scheme.generate(random.Random(9)).public
                == scheme.generate(random.Random(9)).public)


class TestCertificates:
    def test_issue_and_verify(self):
        scheme = Ed25519Scheme()
        ca = CertificateAuthority(scheme, random.Random(3))
        keys = scheme.generate(random.Random(4))
        cert = ca.issue("bob.example", keys.public)
        assert ca.verify(cert)

    def test_foreign_ca_rejected(self):
        scheme = Ed25519Scheme()
        ca = CertificateAuthority(scheme, random.Random(3))
        rogue = CertificateAuthority(scheme, random.Random(5))
        keys = scheme.generate(random.Random(4))
        cert = rogue.issue("bob.example", keys.public)
        assert not ca.verify(cert)

    def test_subject_swap_rejected(self):
        scheme = Ed25519Scheme()
        ca = CertificateAuthority(scheme, random.Random(3))
        keys = scheme.generate(random.Random(4))
        cert = ca.issue("bob.example", keys.public)
        forged = Certificate(subject="mallory.example",
                             public_key=cert.public_key,
                             signature=cert.signature)
        assert not ca.verify(forged)


def count_verifies(monkeypatch) -> list[int]:
    """Count `Ed25519Scheme.verify` calls in a one-item list."""
    calls = [0]
    original = Ed25519Scheme.verify

    def counting(self, public, message, signature):
        calls[0] += 1
        return original(self, public, message, signature)

    monkeypatch.setattr(Ed25519Scheme, "verify", counting)
    return calls


class TestCertificateMemo:
    """The CA remembers the certificates it knows it signed. The memo
    must never admit a certificate the real check would reject."""

    @staticmethod
    def tampered(cert: Certificate) -> list[Certificate]:
        other_key = Ed25519Scheme().generate(random.Random(8)).public
        return [
            Certificate("mallory.example", cert.public_key, cert.signature),
            Certificate(cert.subject, other_key, cert.signature),
            Certificate(cert.subject, cert.public_key,
                        bytes([cert.signature[0] ^ 1]) + cert.signature[1:]),
        ]

    def test_tampered_rejected_before_and_after_genuine_is_cached(self):
        scheme = Ed25519Scheme()
        issuer = CertificateAuthority(scheme, random.Random(3))
        # same key, nothing issued: its memo starts empty
        checker = CertificateAuthority(scheme, random.Random(3))
        cert = issuer.issue("bob.example",
                            scheme.generate(random.Random(4)).public)
        for ca in (issuer, checker):
            assert not any(ca.verify(bad) for bad in self.tampered(cert))
        assert checker.verify(cert) and issuer.verify(cert)
        for ca in (issuer, checker):
            assert not any(ca.verify(bad) for bad in self.tampered(cert))

    def test_rogue_certificate_rejected_after_rogue_accepts_it(self):
        scheme = Ed25519Scheme()
        ca = CertificateAuthority(scheme, random.Random(3))
        rogue = CertificateAuthority(scheme, random.Random(5))
        keys = scheme.generate(random.Random(4))
        genuine = ca.issue("bob.example", keys.public)
        forged = rogue.issue("bob.example", keys.public)
        assert rogue.verify(forged)
        assert not ca.verify(forged)
        assert not rogue.verify(genuine)
        assert ca.verify(genuine)

    def test_plain_tuple_of_a_certificate_is_not_known(self):
        # same fields, same hash: the memo must still tell them apart
        scheme = Ed25519Scheme()
        ca = CertificateAuthority(scheme, random.Random(3))
        cert = ca.issue("bob.example",
                        scheme.generate(random.Random(4)).public)
        assert ca.verify(cert)
        fields = (cert.subject, cert.public_key, cert.signature)
        assert hash(fields) == hash(cert)
        assert cert in ca._valid
        assert fields not in ca._valid

    def test_issued_and_verified_certificates_skip_the_real_check(
            self, monkeypatch):
        scheme = Ed25519Scheme()
        issuer = CertificateAuthority(scheme, random.Random(3))
        checker = CertificateAuthority(scheme, random.Random(3))
        cert = issuer.issue("bob.example",
                            scheme.generate(random.Random(4)).public)
        calls = count_verifies(monkeypatch)
        assert issuer.verify(cert)
        assert calls[0] == 0
        assert checker.verify(cert) and checker.verify(cert)
        assert calls[0] == 1

    def test_failed_check_is_never_cached(self, monkeypatch):
        scheme = Ed25519Scheme()
        ca = CertificateAuthority(scheme, random.Random(3))
        cert = ca.issue("bob.example", scheme.generate(random.Random(4)).public)
        bad = self.tampered(cert)[2]
        calls = count_verifies(monkeypatch)
        assert not ca.verify(bad) and not ca.verify(bad)
        assert calls[0] == 2


def count_verify_derivations(monkeypatch) -> list[int]:
    """Count the public keys `Ed25519Scheme.verify` derives from private
    keys, in a one-item list. It sees the keys generated after the call."""
    derived, verifying = [0], [False]
    crypto._load_backend()
    real = crypto.Ed25519PrivateKey

    class Counted:
        def __init__(self, key):
            self._key = key

        def sign(self, message):
            return self._key.sign(message)

        def public_key(self):
            derived[0] += verifying[0]
            return self._key.public_key()

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", SimpleNamespace(
        from_private_bytes=lambda data: Counted(real.from_private_bytes(data))))
    verify = Ed25519Scheme.verify

    def counting(self, *args):
        verifying[0] = True
        try:
            return verify(self, *args)
        finally:
            verifying[0] = False

    monkeypatch.setattr(Ed25519Scheme, "verify", counting)
    return derived


def count_real_verifies(monkeypatch) -> list[int]:
    """Count the Ed25519 public keys `dispo6.crypto` builds to verify
    with, one per real check, in a one-item list."""
    calls = [0]
    crypto._load_backend()
    real = crypto.Ed25519PublicKey

    def counting(data):
        calls[0] += 1
        return real.from_public_bytes(data)

    monkeypatch.setattr(crypto, "Ed25519PublicKey",
                        SimpleNamespace(from_public_bytes=counting))
    return calls


def scheme_and_pairs() -> tuple[Ed25519Scheme, KeyPair, KeyPair]:
    """A scheme and two pairs it generated, which its memo covers."""
    scheme = Ed25519Scheme()
    return scheme, scheme.generate(random.Random(1)), scheme.generate(random.Random(2))


TAMPERS = ("none", "message", "signature", "other_key", "mismatched_pair",
           "again")


class TestSignatureMemo:
    """The scheme remembers the signatures it made until one is verified.
    The memo must answer exactly as the real check does."""

    @settings(max_examples=300, deadline=None)
    @given(message=st.binary(min_size=1, max_size=64),
           tamper=st.sampled_from(TAMPERS), index=st.integers(0, 63))
    def test_verify_equals_the_real_check(self, message, tamper, index):
        scheme, keys, other = scheme_and_pairs()
        # the other key has an entry for the same message too
        scheme.sign(other, message)
        signer = keys
        if tamper == "mismatched_pair":
            signer = KeyPair(public=other.public, private=keys.private)
        signature = scheme.sign(signer, message)
        public = signer.public
        if tamper == "message":
            i = index % len(message)
            message = message[:i] + bytes([message[i] ^ 1]) + message[i + 1:]
        elif tamper == "signature":
            i = index % len(signature)
            signature = (signature[:i] + bytes([signature[i] ^ 1])
                         + signature[i + 1:])
        elif tamper == "other_key":
            public = other.public
        elif tamper == "again":
            assert scheme.verify(public, message, signature)
        # a fresh scheme's memo is empty: its answer is the real check's
        expected = Ed25519Scheme().verify(public, message, signature)
        assert expected is (tamper in ("none", "again"))
        assert scheme.verify(public, message, signature) is expected
        if tamper == "mismatched_pair":
            # the signature is good under the key that really made it
            assert scheme.verify(keys.public, message, signature)

    def test_one_entry_per_signing_key(self):
        scheme, keys, _ = scheme_and_pairs()
        for i in range(1000):
            scheme.sign(keys, i.to_bytes(4, "big"))
        assert len(scheme._unverified) == 1
        assert scheme._unverified[keys.public][0] == (999).to_bytes(4, "big")

    def test_verified_entry_is_gone(self, monkeypatch):
        scheme, keys, _ = scheme_and_pairs()
        signature = scheme.sign(keys, b"hello")
        calls = count_real_verifies(monkeypatch)
        assert scheme.verify(keys.public, b"hello", signature)
        assert keys.public not in scheme._unverified
        assert calls[0] == 0
        assert scheme.verify(keys.public, b"hello", signature)
        assert calls[0] == 1

    def test_a_replaced_entry_is_checked_for_real(self, monkeypatch):
        # two handshakes in flight at one responder: the first grant's
        # entry is gone when it arrives, and it still verifies
        scheme, keys, _ = scheme_and_pairs()
        first = scheme.sign(keys, b"first")
        second = scheme.sign(keys, b"second")
        calls = count_real_verifies(monkeypatch)
        assert scheme.verify(keys.public, b"first", first)
        assert calls[0] == 1
        assert scheme.verify(keys.public, b"second", second)
        assert calls[0] == 1

    def test_a_pair_of_two_generated_halves_fails(self):
        # both halves were generated by this scheme, and both honest pairs
        # have signed and been verified from the memo, yet a hand-built
        # pair of the two fails
        scheme, first, second = scheme_and_pairs()
        for keys in (first, second):
            signature = scheme.sign(keys, b"honest")
            assert scheme.verify(keys.public, b"honest", signature)
        for public, signer in ((first, second), (second, first)):
            mixed = KeyPair(public=public.public, private=signer.private)
            signature = scheme.sign(mixed, b"mixed")
            assert not scheme.verify(public.public, b"mixed", signature)
            assert scheme.verify(signer.public, b"mixed", signature)

    def test_a_mutated_message_buffer_is_checked_for_real(self):
        scheme, keys, _ = scheme_and_pairs()
        message = bytearray(b"hello")
        signature = scheme.sign(keys, message)
        message[0] ^= 1
        assert not scheme.verify(keys.public, message, signature)


class TestHonestRunsSkipEd25519Math:
    """Every signature an honest run checks was made by the run's one
    shared scheme and is checked before its key signs again, as long as
    no two handshakes to one responder overlap, so none reaches Ed25519's
    verify."""

    def test_pki_scenario(self, monkeypatch):
        calls = count_real_verifies(monkeypatch)
        checks = count_verifies(monkeypatch)
        result = run_scenario(ScenarioConfig(seed=1, horizon_days=60,
                                             correspondents=50,
                                             daily_call_probability=0.05))
        grants = result.metrics.counters["responder"]["grants"]
        assert grants > 0
        assert checks[0] == 2 * grants
        assert calls[0] == 0

    def test_prime_attack_world(self, make_world, monkeypatch):
        # RO host, PKI, a daily flood on the prime, callers and bots
        calls = count_real_verifies(monkeypatch)
        checks = count_verifies(monkeypatch)
        world = make_world(seed=1, pki=True)
        host = make_host(world, mode=Mode.ROUTE_OPTIMIZATION)
        run_scheduled_prime_attack(
            world.sim, host, AttackSchedule(daily_hours=4, start_choices=(8,)),
            horizon_days=1,
            flooder=Flooder(world.sim, "flooder", Ipv6Address(ATTACKER_PREFIX, 0xA)),
            flood_rate_pps=20.0)
        outcomes = []

        def call(node, token):
            node.place_call(token.target_fqdn, outcomes.append)

        def request(node, token):
            node.request_address(token.target_fqdn,
                                 lambda result: outcomes.append(result.outcome))

        for i in range(8):
            node = make_caller(world, i=i)
            node.on_start_call = call
            world.sim.call_at(SimTime.at(0, 6.0 + 1.5 * i), node.node_id,
                              StartCall(host.fqdn, 0, 0,
                                        coincides_with_attack=False))
        for i in range(2):
            bot = make_caller(world, i=20 + i, solve_hip=False)
            bot.on_start_call = request
            for k in range(6):
                world.sim.call_at(SimTime.at(0, 14.25 + i).plus_seconds(k),
                                  bot.node_id,
                                  StartCall(host.fqdn, 0, k,
                                            coincides_with_attack=False))
        world.sim.run()
        assert CallOutcome.CONNECTED in outcomes
        assert CallOutcome.REJECTED_PRIME_BLOCKED in outcomes
        assert host.responder.hip.challenges_issued > 0
        assert checks[0] > 0
        assert calls[0] == 0
