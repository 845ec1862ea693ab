"""Tests for Shamir secret sharing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import PrimeField
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.shamir import (
    ShamirDealer,
    ShamirError,
    ShamirShare,
)

FIELD = PrimeField(DEFAULT_GROUP.q)


class TestShamirDealer:
    def test_recover_from_threshold_shares(self):
        rng = random.Random(1)
        dealer = ShamirDealer(FIELD, num_parties=7, threshold=3)
        shares = dealer.deal(123456789, rng)
        assert dealer.recover(shares[:3]) == 123456789

    def test_recover_from_any_subset(self):
        rng = random.Random(2)
        dealer = ShamirDealer(FIELD, num_parties=7, threshold=4)
        shares = dealer.deal(42, rng)
        subset = [shares[6], shares[1], shares[4], shares[3]]
        assert dealer.recover(subset) == 42

    def test_insufficient_shares_rejected(self):
        rng = random.Random(3)
        dealer = ShamirDealer(FIELD, num_parties=5, threshold=3)
        shares = dealer.deal(7, rng)
        with pytest.raises(ShamirError):
            dealer.recover(shares[:2])

    def test_duplicate_shares_do_not_count_twice(self):
        rng = random.Random(4)
        dealer = ShamirDealer(FIELD, num_parties=5, threshold=3)
        shares = dealer.deal(7, rng)
        with pytest.raises(ShamirError):
            dealer.recover([shares[0], shares[0], shares[0]])

    def test_duplicate_shares_dedupe_when_enough_remain(self):
        # Regression: a retransmitted share used to poison recover() -- the
        # first `threshold` list entries were interpolated verbatim, so
        # [s1, s1, s2, s3] raised "duplicate share indices" even though
        # three distinct shares were present.
        rng = random.Random(40)
        dealer = ShamirDealer(FIELD, num_parties=5, threshold=3)
        shares = dealer.deal(31337, rng)
        assert dealer.recover(
            [shares[0], shares[0], shares[1], shares[2]]) == 31337

    def test_conflicting_duplicate_indices_rejected_by_name(self):
        rng = random.Random(41)
        dealer = ShamirDealer(FIELD, num_parties=5, threshold=3)
        shares = dealer.deal(7, rng)
        forged = ShamirShare(index=shares[1].index,
                             value=(shares[1].value + 1) % FIELD.q)
        with pytest.raises(ShamirError,
                           match=f"conflicting.*index {shares[1].index}"):
            dealer.recover([shares[0], shares[1], forged, shares[2]])

    def test_zero_index_rejected(self):
        dealer = ShamirDealer(FIELD, num_parties=3, threshold=2)
        with pytest.raises(ShamirError, match="index 0"):
            dealer.recover([ShamirShare(index=0, value=1),
                            ShamirShare(index=1, value=2)])
        with pytest.raises(ShamirError, match="index 0"):
            # an index congruent to 0 mod q is the same forbidden point
            dealer.recover([ShamirShare(index=FIELD.q, value=1),
                            ShamirShare(index=1, value=2)])

    def test_recover_from_no_shares_rejected(self):
        with pytest.raises(ShamirError, match="need 2 distinct shares, got 0"):
            ShamirDealer(FIELD, num_parties=3, threshold=2).recover([])

    def test_invalid_parameters(self):
        with pytest.raises(ShamirError):
            ShamirDealer(FIELD, num_parties=0, threshold=1)
        with pytest.raises(ShamirError):
            ShamirDealer(FIELD, num_parties=4, threshold=5)
        with pytest.raises(ShamirError):
            ShamirDealer(FIELD, num_parties=4, threshold=0)

    def test_share_indices_start_at_one(self):
        rng = random.Random(5)
        shares = ShamirDealer(FIELD, 4, 2).deal(9, rng)
        assert [share.index for share in shares] == [1, 2, 3, 4]

    def test_fewer_than_threshold_shares_leak_nothing_structurally(self):
        # Two different secrets can yield the same single share value pattern:
        # verify a single share is consistent with more than one secret.
        rng = random.Random(6)
        dealer = ShamirDealer(FIELD, num_parties=4, threshold=2)
        shares_a = dealer.deal(1, rng)
        shares_b = dealer.deal(2, rng)
        # both are valid sharings; a single share cannot distinguish secrets
        assert shares_a[0].index == shares_b[0].index == 1


class TestShares:
    def test_share_as_point(self):
        share = ShamirShare(index=3, value=99)
        assert share.as_point() == (3, 99)

    @given(secret=st.integers(min_value=0, max_value=2**64),
           num_parties=st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_any_valid_configuration_roundtrips(self, secret, num_parties):
        rng = random.Random(secret % 1000)
        threshold = rng.randint(1, num_parties)
        dealer = ShamirDealer(FIELD, num_parties, threshold)
        recovered = dealer.recover(dealer.deal(secret, rng)[:threshold])
        assert recovered == secret % FIELD.q
