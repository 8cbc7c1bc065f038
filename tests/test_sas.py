import random

import pytest

from dispo6.sas import (
    SasAbort,
    commitment,
    compute_sas,
    run_pairing,
)
from attackers import MitmChannel, MitmStrategy, mitm_attempt


class TestComputeSas:
    def test_deterministic_and_symmetric_inputs(self):
        args = (b"ra" * 8, b"rb" * 8, b"ka" * 16, b"kb" * 16)
        assert compute_sas(*args, 16) == compute_sas(*args, 16)

    def test_output_length_matches_bits(self):
        args = (b"ra" * 8, b"rb" * 8, b"ka" * 16, b"kb" * 16)
        for bits in (1, 8, 15, 16, 20, 64):
            sas = compute_sas(*args, bits)
            assert len(sas) == bits
            assert set(sas) <= {"0", "1"}

    def test_protocol_range_is_fifteen_to_twenty(self):
        from dispo6.sas import PROTOCOL_SAS_RANGE

        assert PROTOCOL_SAS_RANGE == (15, 20)

    def test_width_bounds_enforced(self):
        args = (b"r", b"r", b"k", b"k")
        with pytest.raises(ValueError):
            compute_sas(*args, 0)
        with pytest.raises(ValueError):
            compute_sas(*args, 129)

    def test_avalanche_on_key_flip(self):
        # flipping one bit of a public key must scramble the SAS; with n bits
        # two strings still agree with probability about 2^-n
        rng = random.Random(99)
        bits = 8
        trials = 10_000
        equal = 0
        for _ in range(trials):
            ra, rb = rng.randbytes(16), rng.randbytes(16)
            ka, kb = rng.randbytes(32), rng.randbytes(32)
            flipped = bytes([kb[0] ^ 1]) + kb[1:]
            if compute_sas(ra, rb, ka, kb, bits) == compute_sas(ra, rb, ka, flipped, bits):
                equal += 1
        expected = trials * 2**-bits
        assert 0.4 * expected <= equal <= 2.0 * expected


class TestHonestRun:
    def test_pairing_confirms_and_exchanges_keys(self):
        rng = random.Random(1)
        result = run_pairing(rng, b"A" * 32, b"B" * 32, sas_bits=16)
        assert result.confirmed
        assert result.initiator_sas == result.responder_sas
        assert result.key_seen_by_initiator == b"B" * 32
        assert result.key_seen_by_responder == b"A" * 32

    def test_hundred_percent_honest_success(self):
        rng = random.Random(2)
        assert all(run_pairing(rng, rng.randbytes(32), rng.randbytes(32),
                               sas_bits=16).confirmed
                   for _ in range(500))


class TestMitm:
    def test_passive_relay_confirms_but_substitutes_nothing(self):
        rng = random.Random(7)
        result = mitm_attempt(rng, sas_bits=8, strategy=MitmStrategy.PASSIVE)
        assert result.undetected
        assert not result.substituted

    def test_reveal_substitution_hits_commit_check(self):
        rng = random.Random(8)
        for _ in range(50):
            result = mitm_attempt(rng, sas_bits=8,
                                  strategy=MitmStrategy.REVEAL_SUBSTITUTION)
            assert not result.undetected
            assert result.abort_reason is SasAbort.COMMIT_MISMATCH
        # the abort comes before either side shows a SAS
        channel = MitmChannel(rng, MitmStrategy.REVEAL_SUBSTITUTION)
        pairing = run_pairing(rng, b"A" * 32, b"B" * 32, sas_bits=8,
                              channel=channel)
        assert pairing.abort_reason is SasAbort.COMMIT_MISMATCH
        assert pairing.initiator_sas is None and pairing.responder_sas is None

    def test_random_substitution_rarely_survives(self):
        rng = random.Random(9)
        trials = 5_000
        results = [mitm_attempt(rng, sas_bits=8) for _ in range(trials)]
        survived = sum(result.undetected for result in results)
        # expectation ~= trials * 2^-8 ~= 19.5
        assert 5 <= survived <= 45
        # each caught substitution aborts at the SAS comparison
        assert all(result.abort_reason is SasAbort.SAS_MISMATCH
                   for result in results if not result.undetected)

    def test_commitment_binds_on_toy_nonce_space(self):
        # every 16-bit nonce hashes to a distinct commitment, so a mismatched
        # reveal can never be confirmed anywhere in this space
        seen = {commitment(value.to_bytes(2, "big")) for value in range(2**16)}
        assert len(seen) == 2**16
