"""Tests for the threshold common coin / threshold coin flipping."""

import random

import pytest

from tests.reference import unstamped
from repro.crypto.threshold_coin import (
    CoinShare,
    ThresholdCoinError,
    deal_threshold_coin,
)


def _deal(n=4, t=2, seed=1, flavor="tsig"):
    rng = random.Random(seed)
    return deal_threshold_coin(n, t, rng, flavor=flavor), rng


class TestThresholdCoin:
    def test_coin_is_binary_and_consistent_across_subsets(self):
        coins, rng = _deal()
        tag = b"epoch0|round1"
        shares = [coin.coin_share(tag, rng) for coin in coins]
        value_a = coins[0].combine(tag, shares[:2])
        value_b = coins[1].combine(tag, shares[2:])
        value_c = coins[2].combine(tag, [shares[3], shares[0]])
        assert value_a in (0, 1)
        assert value_a == value_b == value_c

    def test_different_tags_can_differ(self):
        coins, rng = _deal()
        values = set()
        for round_number in range(32):
            tag = f"round{round_number}".encode()
            shares = [coin.coin_share(tag, rng) for coin in coins[:2]]
            values.add(coins[0].combine(tag, shares))
        assert values == {0, 1}  # overwhelmingly likely over 32 rounds

    def test_share_verification(self):
        coins, rng = _deal()
        tag = b"verify"
        share = unstamped(coins[2].coin_share(tag, rng))
        assert coins[0].verify_share(tag, share)
        assert not coins[0].verify_share(b"other tag", share)

    def test_forged_share_rejected(self):
        coins, rng = _deal()
        tag = b"forge"
        genuine = coins[1].coin_share(tag, rng)
        forged = CoinShare(signer=3, tag=tag, value=genuine.value,
                           proof=genuine.proof)
        assert not coins[0].verify_share(tag, forged)

    def test_insufficient_shares(self):
        coins, rng = _deal(t=3)
        tag = b"few"
        shares = [coins[0].coin_share(tag, rng)]
        with pytest.raises(ThresholdCoinError):
            coins[1].combine(tag, shares)

    def test_invalid_shares_excluded_from_combination(self):
        coins, rng = _deal(t=2)
        tag = b"mixed"
        good = coins[0].coin_share(tag, rng)
        bad = CoinShare(signer=2, tag=tag, value=999, proof=good.proof)
        with pytest.raises(ThresholdCoinError):
            coins[1].combine(tag, [good, bad])

    def test_wide_value_combination(self):
        coins, rng = _deal()
        tag = b"pi-seed"
        shares = [coin.coin_share(tag, rng) for coin in coins[:2]]
        wide_a = coins[0].combine_value(tag, shares, modulus=10**9)
        wide_b = coins[3].combine_value(
            tag, [coin.coin_share(tag, rng) for coin in coins[1:3]], modulus=10**9)
        assert 0 <= wide_a < 10**9
        assert wide_a == wide_b

    def test_flavor_validation(self):
        rng = random.Random(1)
        with pytest.raises(ThresholdCoinError):
            deal_threshold_coin(4, 2, rng, flavor="bogus")

    def test_flip_flavor_functionally_identical(self):
        coins, rng = _deal(flavor="flip")
        tag = b"flip round"
        shares = [coin.coin_share(tag, rng) for coin in coins[:2]]
        assert coins[0].combine(tag, shares) in (0, 1)
        assert all(coin.flavor == "flip" for coin in coins)

    def test_dealer_parameter_validation(self):
        rng = random.Random(2)
        with pytest.raises(ThresholdCoinError):
            deal_threshold_coin(4, 0, rng)
        with pytest.raises(ThresholdCoinError):
            deal_threshold_coin(4, 5, rng)

    def test_coin_unpredictable_without_enough_shares(self):
        # With only t-1 shares the combiner refuses; this is the structural
        # guarantee the ABA relies on (no early coin access for the adversary).
        coins, rng = _deal(n=4, t=2)
        tag = b"secret round"
        share = coins[0].coin_share(tag, rng)
        with pytest.raises(ThresholdCoinError):
            coins[1].combine(tag, [share])
