"""The one combine policy of the three threshold schemes.

``combine(verify=True)`` keeps, per signer, the first share in input order
that the scheme's own ``verify_share`` accepts, then interpolates the
``threshold`` lowest signers; ``verify=False`` does the same with every share
admitted.  Both are compared here against that loop written out by hand, over
share lists drawn from a pool of valid, corrupted, misdirected and malformed
shares.  (What the interpolation itself computes is pinned against a by-hand
Lagrange product in ``test_fastpath.py``.)
"""

import functools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.group import unstamped
from repro.crypto.threshold_coin import ThresholdCoinError, deal_threshold_coin
from repro.crypto.threshold_enc import ThresholdEncError, deal_threshold_enc
from repro.crypto.threshold_sig import ThresholdSigError, deal_threshold_sig

NUM_PARTIES = 5
THRESHOLD = 3


# The three schemes behind one shape; a ``statement`` is what a share is
# about: a message, a coin tag, a ciphertext.
class _Tsig:
    deal = staticmethod(deal_threshold_sig)
    error, shares_noun = ThresholdSigError, "valid shares"

    @staticmethod
    def statement(schemes, rng, label: bytes):
        return b"tsig|" + label

    @staticmethod
    def share(scheme, statement, rng):
        return scheme.sign_share(statement, rng)

    @staticmethod
    def combine(public_key, statement, shares, verify):
        return public_key.combine(statement, shares, verify=verify)


class _Coin:
    deal = staticmethod(deal_threshold_coin)
    error, shares_noun = ThresholdCoinError, "valid coin shares"

    @staticmethod
    def statement(schemes, rng, label: bytes):
        return b"coin|" + label

    @staticmethod
    def share(scheme, statement, rng):
        return scheme.coin_share(statement, rng)

    @staticmethod
    def combine(public_key, statement, shares, verify):
        # the bit alone would hide half of all wrong selections
        return (public_key.combine(statement, shares, verify=verify),
                public_key.combine_value(statement, shares, 1 << 64,
                                         verify=verify))


class _Tenc:
    deal = staticmethod(deal_threshold_enc)
    error, shares_noun = ThresholdEncError, "valid decryption shares"

    @staticmethod
    def statement(schemes, rng, label: bytes):
        return schemes[0].encrypt(b"payload " + label, label, rng)

    @staticmethod
    def share(scheme, statement, rng):
        return scheme.decryption_share(statement, rng)

    @staticmethod
    def combine(public_key, statement, shares, verify):
        return public_key.combine(statement, shares, verify=verify)


FAMILIES = [_Tsig, _Coin, _Tenc]
family_ids = [family.__name__.strip("_").lower() for family in FAMILIES]

#: variants of one signer's share, by position in ``World.by_signer[i]``
GOOD, UNSTAMPED, BAD_VALUE, BAD_RESPONSE, ELSEWHERE = range(5)


class World:
    """One dealt scheme, a statement, and every kind of share about it."""

    def __init__(self, family) -> None:
        rng = random.Random(2024)
        schemes = family.deal(NUM_PARTIES, THRESHOLD, rng)
        group = schemes[0].group
        self.family = family
        self.public_key = schemes[0].public_key
        self.statement = family.statement(schemes, rng, b"combine")
        elsewhere = family.statement(schemes, rng, b"elsewhere")
        self.by_signer = []
        for scheme in schemes:
            good = family.share(scheme, self.statement, rng)
            self.by_signer.append([
                good,
                unstamped(good),
                replace(good, value=group.mul(good.value, group.g)),
                replace(good, proof=replace(
                    good.proof, response=(good.proof.response + 1) % group.q)),
                # honestly made, and stamped, for another statement
                family.share(scheme, elsewhere, rng),
            ])
        good = self.by_signer[0][GOOD]
        #: dataclass-typed shares with an integer signer: what the
        #: unverified path can take without raising
        self.typed = [share for variants in self.by_signer
                      for share in variants]
        self.typed.append(replace(good, signer=NUM_PARTIES + 3))
        self.anything = self.typed + [
            replace(good, signer=0), replace(good, signer="1"),
            replace(good, signer=None), None, "share", good.proof]
        self.clean = self.combine(
            [variants[GOOD] for variants in self.by_signer], verify=True)

    def combine(self, shares, verify):
        return self.family.combine(self.public_key, self.statement, shares,
                                   verify)

    def accepts(self, share) -> bool:
        return self.public_key.verify_share(self.statement, share)

    def check_against_the_loop(self, shares, verify: bool) -> None:
        """``combine`` equals: first admitted share per signer in input
        order, then the ``THRESHOLD`` lowest signers -- or the scheme's own
        error counting the distinct admitted signers."""
        kept = {}
        for share in shares:
            if (not verify or self.accepts(share)) and share.signer not in kept:
                kept[share.signer] = share
        if len(kept) < THRESHOLD:
            message = (f"need {THRESHOLD} {self.family.shares_noun}, "
                       f"have {len(kept)}")
            with pytest.raises(self.family.error,
                               match=f"^{re.escape(message)}$"):
                self.combine(shares, verify)
            return
        selected = [kept[signer] for signer in sorted(kept)[:THRESHOLD]]
        combined = self.combine(shares, verify)
        assert combined == self.combine(selected, verify=False)
        if verify:
            # every subset of valid shares interpolates the same secret
            assert combined == self.clean


@functools.lru_cache(maxsize=None)
def world_of(family) -> World:
    return World(family)


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
class TestCombineEqualsTheLoop:
    @given(picks=st.lists(st.integers(min_value=0, max_value=10**6),
                          max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_verified_combine_over_random_share_lists(self, family, picks):
        world = world_of(family)
        shares = [world.anything[pick % len(world.anything)]
                  for pick in picks]
        world.check_against_the_loop(shares, verify=True)

    @given(picks=st.lists(st.integers(min_value=0, max_value=10**6),
                          max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_unverified_combine_over_random_share_lists(self, family, picks):
        world = world_of(family)
        shares = [world.typed[pick % len(world.typed)] for pick in picks]
        world.check_against_the_loop(shares, verify=False)

    def test_survives_a_corrupted_share(self, family):
        world = world_of(family)
        for bad in (BAD_VALUE, BAD_RESPONSE, ELSEWHERE):
            shares = [world.by_signer[0][bad]] + [
                variants[GOOD] for variants in world.by_signer[1:]]
            world.check_against_the_loop(shares, verify=True)
            assert world.combine(shares, verify=True) == world.clean

    def test_raises_when_too_few_valid(self, family):
        world = world_of(family)
        # five distinct signers, two of them valid
        shares = [variants[BAD_VALUE] for variants in world.by_signer[:3]] \
            + [variants[GOOD] for variants in world.by_signer[3:]]
        with pytest.raises(family.error, match="have 2$"):
            world.combine(shares, verify=True)
        world.check_against_the_loop(shares, verify=True)

    def test_duplicated_signer_bad_copy_first_and_second(self, family):
        world = world_of(family)
        good, bad = (world.by_signer[0][kind] for kind in (GOOD, BAD_VALUE))
        # exactly THRESHOLD distinct signers: signer 1 has to be used
        others = [variants[UNSTAMPED] for variants in world.by_signer[1:3]]
        for shares in ([bad, good] + others, [good, bad] + others):
            world.check_against_the_loop(shares, verify=True)
            world.check_against_the_loop(shares, verify=False)
            assert world.combine(shares, verify=True) == world.clean
        # unverified, the first copy wins whatever it is
        assert world.combine([good, bad] + others, verify=False) == world.clean
        assert world.combine([bad, good] + others, verify=False) != world.clean

    def test_malformed_shares_are_dropped_not_raised(self, family):
        world = world_of(family)
        honest = [variants[GOOD] for variants in world.by_signer[2:]]
        for stray in world.anything[len(world.typed) - 1:]:
            assert not world.accepts(stray)
            assert world.combine([stray] + honest + [stray],
                                 verify=True) == world.clean
