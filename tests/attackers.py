"""Attackers that only the tests run, each behind one of the paper's
claims.

`PerSourceFilter` is the victim-side source blocking that a spoofed
flood defeats. `MitmChannel` and `mitm_attempt` put an attacker in the
path of a SAS pairing, which only the out-of-band comparison catches.
`SpitCaller` is a nuisance caller that obtained its disposable address
honestly, so only the victim's deny list stops it.
"""

import random
from enum import Enum

from dispo6.addressing import Ipv6Address
from dispo6.caller import CallerNode
from dispo6.messages import record
from dispo6.sas import (
    NONCE_BYTES,
    CommitMessage,
    DirectChannel,
    RevealMessage,
    SasAbort,
    ShareMessage,
    commitment,
    run_pairing,
)


class PerSourceFilter:
    """Victim-side source blocking, the defense spoofing defeats."""

    def __init__(self, strikes: int = 1):
        self.strikes = strikes
        self.blocked: set[Ipv6Address] = set()
        self.filtered = 0
        self.passed = 0
        self._counts: dict[Ipv6Address, int] = {}

    def admit(self, src: Ipv6Address) -> bool:
        if src in self.blocked:
            self.filtered += 1
            return False
        count = self._counts.get(src, 0) + 1
        self._counts[src] = count
        if count >= self.strikes:
            self.blocked.add(src)
        self.passed += 1
        return True


class MitmStrategy(Enum):
    PASSIVE = "passive"
    RANDOM_SUBSTITUTION = "random_substitution"
    REVEAL_SUBSTITUTION = "reveal_substitution"


@record
class MitmResult:
    undetected: bool
    substituted: bool
    abort_reason: SasAbort | None


class MitmChannel(DirectChannel):
    """In-path attacker for the pairing run.

    RANDOM_SUBSTITUTION plays a full double session with its own nonces and
    key material on both legs; it stays consistent with its own commitment,
    so only the out-of-band SAS comparison can catch it.
    REVEAL_SUBSTITUTION forwards the honest commitment but swaps the
    reveal, which the commitment check kills outright.
    """

    def __init__(self, rng: random.Random, strategy: MitmStrategy):
        self.strategy = strategy
        self.nonce_to_responder = rng.randbytes(NONCE_BYTES)
        self.nonce_to_initiator = rng.randbytes(NONCE_BYTES)
        self.key_to_responder = rng.randbytes(32)
        self.key_to_initiator = rng.randbytes(32)
        self.swapped_reveal = rng.randbytes(NONCE_BYTES)

    def forward_commit(self, msg: CommitMessage) -> CommitMessage:
        if self.strategy is MitmStrategy.RANDOM_SUBSTITUTION:
            return CommitMessage(commitment=commitment(self.nonce_to_responder),
                                 public_key=self.key_to_responder)
        return msg

    def forward_share(self, msg: ShareMessage) -> ShareMessage:
        if self.strategy is MitmStrategy.RANDOM_SUBSTITUTION:
            return ShareMessage(nonce=self.nonce_to_initiator,
                                public_key=self.key_to_initiator)
        return msg

    def forward_reveal(self, msg: RevealMessage) -> RevealMessage:
        if self.strategy is MitmStrategy.RANDOM_SUBSTITUTION:
            return RevealMessage(nonce=self.nonce_to_responder)
        if self.strategy is MitmStrategy.REVEAL_SUBSTITUTION:
            return RevealMessage(nonce=self.swapped_reveal)
        return msg


def mitm_attempt(rng: random.Random, sas_bits: int = 8,
                 strategy: MitmStrategy = MitmStrategy.RANDOM_SUBSTITUTION
                 ) -> MitmResult:
    """One randomized pairing run with the attacker in the middle."""
    initiator_key = rng.randbytes(32)
    responder_key = rng.randbytes(32)
    channel = MitmChannel(rng, strategy)
    outcome = run_pairing(rng, initiator_key, responder_key,
                          sas_bits=sas_bits, channel=channel)
    return MitmResult(undetected=outcome.confirmed,
                      substituted=strategy is not MitmStrategy.PASSIVE,
                      abort_reason=outcome.abort_reason)


class SpitCaller(CallerNode):
    """Nuisance caller that legitimately obtained a disposable address.

    The protocol run is honest; the abuse is what the calls are for. After
    the victim blocks the granted address, calls black-hole, and renewed
    address requests meet the deny list.
    """

    def re_request_address(self, victim_fqdn: str, on_done) -> None:
        entry = self.entry_for(victim_fqdn)
        entry.peer_address = None
        entry.peer_known_blocked = False
        self.request_address(victim_fqdn, on_done)
