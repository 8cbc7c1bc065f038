"""Certificateless pairing with a short authentication string (SAS).

When both users are physically present, their devices exchange public keys
without a PKI: the initiator commits to a long random nonce, the responder
answers with its own nonce and key, the initiator reveals, and both sides
derive an n-bit SAS from the transcript. The users compare the two SAS
values out loud; a man-in-the-middle who substituted anything survives
only with probability about 2^-n. Protocol use keeps n in 15..20, tests
shrink it to make failure rates measurable.

The security rests on the order (Vaudenay, CRYPTO 2005): each side's
nonce is fixed before it sees the other's, so an attacker cannot steer
the SAS, and a reveal that does not open the commitment aborts before
any SAS is shown. `run_pairing` is one straight-line exchange in that
order; there is no state machine that a caller could drive out of it.
"""

import hashlib
import random
from enum import Enum

from .crypto import encode_fields
from .messages import record

MIN_SAS_BITS = 1
MAX_SAS_BITS = 128
# the SAS width a pairing uses unless told otherwise
SAS_BITS = 16
# length of each side's random nonce
NONCE_BYTES = 16


def compute_sas(initiator_nonce: bytes, responder_nonce: bytes,
                initiator_key: bytes, responder_key: bytes, bits: int) -> str:
    """n-bit authentication string over the canonically ordered transcript."""
    if not MIN_SAS_BITS <= bits <= MAX_SAS_BITS:
        raise ValueError(f"SAS width {bits} outside [{MIN_SAS_BITS},{MAX_SAS_BITS}]")
    digest = hashlib.sha256(encode_fields(
        b"sas-v1", initiator_nonce, responder_nonce,
        initiator_key, responder_key)).digest()
    value = int.from_bytes(digest, "big") >> (256 - bits)
    return format(value, f"0{bits}b")


def commitment(nonce: bytes) -> bytes:
    return hashlib.sha256(encode_fields(b"sas-commit", nonce)).digest()


class SasAbort(Enum):
    COMMIT_MISMATCH = "commit_mismatch"
    SAS_MISMATCH = "sas_mismatch"


@record
class CommitMessage:
    commitment: bytes
    public_key: bytes


@record
class ShareMessage:
    nonce: bytes
    public_key: bytes


@record
class RevealMessage:
    nonce: bytes


@record
class PairResult:
    confirmed: bool
    abort_reason: SasAbort | None
    initiator_sas: str | None
    responder_sas: str | None
    key_seen_by_initiator: bytes | None
    key_seen_by_responder: bytes | None


class DirectChannel:
    """Honest in-person channel: messages pass unchanged."""

    def forward_commit(self, msg: CommitMessage) -> CommitMessage:
        return msg

    def forward_share(self, msg: ShareMessage) -> ShareMessage:
        return msg

    def forward_reveal(self, msg: RevealMessage) -> RevealMessage:
        return msg


def run_pairing(rng: random.Random, initiator_key: bytes, responder_key: bytes,
                sas_bits: int = SAS_BITS,
                channel: DirectChannel | None = None) -> PairResult:
    """Run the full exchange plus the out-of-band SAS comparison.

    Each message passes through `channel`, where an attacker may swap it.
    The comparison channel is faithful: it reports equality of the two
    displayed strings exactly (the two users reading them to each other).
    """
    channel = channel if channel is not None else DirectChannel()
    # the initiator is bound to its nonce before it sees the responder's
    initiator_nonce = rng.randbytes(NONCE_BYTES)
    commit = channel.forward_commit(
        CommitMessage(commitment(initiator_nonce), initiator_key))
    # the responder answers while the initiator's nonce is still hidden
    responder_nonce = rng.randbytes(NONCE_BYTES)
    share = channel.forward_share(ShareMessage(responder_nonce, responder_key))
    # only now is the committed nonce revealed, and checked before any SAS
    reveal = channel.forward_reveal(RevealMessage(initiator_nonce))
    if commitment(reveal.nonce) != commit.commitment:
        return PairResult(confirmed=False, abort_reason=SasAbort.COMMIT_MISMATCH,
                          initiator_sas=None, responder_sas=None,
                          key_seen_by_initiator=share.public_key,
                          key_seen_by_responder=commit.public_key)
    initiator_sas = compute_sas(initiator_nonce, share.nonce,
                                initiator_key, share.public_key, sas_bits)
    responder_sas = compute_sas(reveal.nonce, responder_nonce,
                                commit.public_key, responder_key, sas_bits)
    match = initiator_sas == responder_sas
    return PairResult(confirmed=match,
                      abort_reason=None if match else SasAbort.SAS_MISMATCH,
                      initiator_sas=initiator_sas, responder_sas=responder_sas,
                      key_seen_by_initiator=share.public_key,
                      key_seen_by_responder=commit.public_key)
