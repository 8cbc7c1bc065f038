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
