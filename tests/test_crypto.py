import random

from dispo6.crypto import (
    CertificateAuthority,
    Certificate,
    Ed25519Scheme,
    encode_fields,
)


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
