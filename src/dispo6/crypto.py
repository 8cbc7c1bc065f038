"""Signature primitives, certificates and the canonical transcript encoding.

Canonical encoding, used everywhere bytes are signed or hashed together:
each field is prefixed with its length as 4 bytes big-endian, then the
fields are concatenated in argument order. Length prefixes make the
encoding injective, which the pairing security argument relies on.

Protocol logic never looks inside a primitive. Signatures are Ed25519;
the protocol hashes with SHA-256 through hashlib directly. Key material
is drawn from the caller's seeded RNG so runs stay reproducible.

The Ed25519 backend (`cryptography`, with its cffi and OpenSSL
bindings, ~6 MiB resident) loads when the first `Ed25519Scheme` is
built, not when this module is imported. A scheme is the only way to
generate keys, sign or verify, so every PKI path has the backend, while
a flood or a PKI-off run, which builds no scheme, never loads it. The
scheme's methods then read the backend's classes as plain module
globals.

Two memos skip Ed25519 math that cannot change an answer, and both rest
on one argument: Ed25519 signing is deterministic and correct (RFC 8032),
so a signature made with a private key over some bytes always verifies
under that key's public key over the same bytes.
- `Ed25519Scheme` remembers, per key pair it generated, the last
  signature that pair made and nobody has verified yet. The entry lives
  until it is verified or the pair signs again, so there is at most one
  per pair. A message signature is checked once, where it arrives. Any
  other signer, such as a hand-built `KeyPair` of two pairs' halves,
  leaves no entry, so its signatures get the real check.
- `CertificateAuthority` remembers every certificate it issued or a real
  check accepted, for the life of the CA, because certificates are
  checked again on every handshake.
Any input that differs in a byte from a remembered one gets the real
check, and a failed check is never remembered, so both return exactly
what the real check would.
"""

import random

from .messages import record


def _load_backend() -> None:
    """Bind the backend's classes as module globals, once."""
    global Ed25519PrivateKey, Ed25519PublicKey, InvalidSignature
    if "InvalidSignature" in globals():
        return
    from cryptography import exceptions
    from cryptography.hazmat.primitives.asymmetric import ed25519
    Ed25519PrivateKey = ed25519.Ed25519PrivateKey
    Ed25519PublicKey = ed25519.Ed25519PublicKey
    InvalidSignature = exceptions.InvalidSignature


def encode_fields(*fields: bytes) -> bytes:
    out = bytearray()
    for field in fields:
        out += len(field).to_bytes(4, "big")
        out += field
    return bytes(out)


@record
class KeyPair:
    public: bytes
    private: object


class Ed25519Scheme:
    """Default signature scheme. Deterministic signing, 32-byte public keys.

    `_generated` maps the public key of each pair `generate` made to its
    private key. `sign` remembers a signature only for such a pair, the
    one case in which the public key is known to be the private key's
    own: `_unverified` maps its public key to the (message, signature) of
    the last signature it made that no `verify` has accepted yet.
    `verify` accepts an entry without Ed25519 math only if message and
    signature match byte for byte; the entry is then dropped, so a second
    check of the same triple is a real one. Every other input gets the
    real check, and nothing is stored on a verify.
    """

    def __init__(self):
        _load_backend()
        self._unverified: dict[bytes, tuple[bytes, bytes]] = {}
        self._generated: dict[bytes, Ed25519PrivateKey] = {}

    def generate(self, rng: random.Random) -> KeyPair:
        private = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
        public = private.public_key().public_bytes_raw()
        self._generated[public] = private
        return KeyPair(public=public, private=private)

    def sign(self, keys: KeyPair, message: bytes) -> bytes:
        signature = keys.private.sign(message)
        if self._generated.get(keys.public) is keys.private:
            # bytes() copies only a mutable buffer, which could change later
            self._unverified[keys.public] = (bytes(message), signature)
        return signature

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        made = self._unverified.get(public)
        if made is not None and made[0] == message and made[1] == signature:
            del self._unverified[public]
            return True
        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False


@record
class Certificate:
    """Binding of a subject name to a public key, signed by one stub CA."""

    subject: str
    public_key: bytes
    signature: bytes


def _certificate_bytes(subject: str, public_key: bytes) -> bytes:
    """What a CA signs to certify `public_key` for `subject`."""
    return encode_fields(subject.encode(), public_key)


class CertificateAuthority:
    """Single-CA trust store; real PKI deployment is out of scope.

    `_valid` memoizes the certificates this CA knows it signed: the ones
    it issued and the ones a real check accepted. A certificate differing
    in any byte misses it and is checked again; a failed check is never
    stored. This is exact, because Ed25519 signing is deterministic and
    a signature this CA made over these bytes always verifies.
    """

    def __init__(self, scheme: Ed25519Scheme, rng: random.Random):
        self.scheme = scheme
        self._keys = scheme.generate(rng)
        self._valid: set[Certificate] = set()

    @property
    def public_key(self) -> bytes:
        return self._keys.public

    def issue(self, subject: str, public_key: bytes) -> Certificate:
        body = _certificate_bytes(subject, public_key)
        certificate = Certificate(subject=subject, public_key=public_key,
                                  signature=self.scheme.sign(self._keys, body))
        self._valid.add(certificate)
        return certificate

    def verify(self, certificate: Certificate) -> bool:
        if certificate not in self._valid:
            body = _certificate_bytes(certificate.subject,
                                      certificate.public_key)
            if not self.scheme.verify(self.public_key, body,
                                      certificate.signature):
                return False
            self._valid.add(certificate)
        return True

    def certifies(self, certificate: Certificate | None, subject: str,
                  message: bytes, signature: bytes) -> bool:
        """Whether this CA certified `certificate`'s key for `subject` and
        that key signed `message`: the one check on a peer's signature.
        Nobody keeps the key; each handshake checks it afresh."""
        return (certificate is not None and certificate.subject == subject
                and self.verify(certificate)
                and self.scheme.verify(certificate.public_key, message,
                                       signature))
