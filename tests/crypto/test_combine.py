"""The one combine policy of the three threshold schemes.

``combine(verify=True)`` keeps, per signer, the first share in input order
that the scheme's own ``verify_share`` accepts, then interpolates the
``threshold`` lowest signers; ``verify=False`` does the same with every share
admitted.  Both are compared here against that loop written out by hand, over
share lists drawn from a pool of valid, corrupted, misdirected and malformed
shares.

What the interpolation computes -- signed integer Lagrange weights under one
shared root -- is compared against the formula it replaced, written out here:
the coefficients' residues modulo ``q`` into one interleaved
multi-exponentiation, then each scheme's own tail.
"""

import functools
import hashlib
import random
import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.fastpath import SHORT_EXPONENT_BITS, multi_exp
from repro.crypto.field import lagrange_coefficients_at_zero
from repro.crypto.group import DEFAULT_GROUP, Group
from repro.crypto.threshold_coin import ThresholdCoinError, deal_threshold_coin
from repro.crypto.threshold_enc import ThresholdEncError, deal_threshold_enc
from repro.crypto.threshold_sig import (
    ThresholdSigError,
    ThresholdSignature,
    deal_threshold_sig,
)
from tests.reference import unstamped

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

    @staticmethod
    def from_element(public_key, statement, element):
        return ThresholdSignature(
            message_point=public_key.hash_message(statement), value=element)


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

    @staticmethod
    def from_element(public_key, statement, element):
        encoded = public_key.group.element_to_bytes(element)
        wide = hashlib.sha256(b"coin-wide" + encoded).digest()
        return (hashlib.sha256(b"coin-out" + encoded).digest()[0] & 1,
                int.from_bytes(wide, "big") % (1 << 64))


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

    @staticmethod
    def from_element(public_key, statement, element):
        return masked_byte_by_byte(statement.payload, public_key.group,
                                   element, statement.label)


def masked_byte_by_byte(data: bytes, group, shared: int, label: bytes) -> bytes:
    """The XOR tail as it was: SHA-256-CTR blocks until long enough, then one
    generator step per byte."""
    key_material = hashlib.sha256(
        b"tenc" + group.element_to_bytes(shared) + label).digest()
    blocks = []
    counter = 0
    while sum(len(block) for block in blocks) < len(data):
        blocks.append(hashlib.sha256(
            key_material + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(a ^ b for a, b in zip(data, b"".join(blocks)[:len(data)]))


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

    def test_a_value_in_no_group_raises_the_schemes_own_error(self, family):
        world = world_of(family)
        # signers 1, 2, 3 weigh 3, -3 and 1: a multiple of P must be named
        # under a positive weight (the product is 0) and under a negative one
        # (where ``pow(0, -1, P)`` is a bare ValueError)
        lowest = [variants[GOOD] for variants in world.by_signer[:THRESHOLD]]
        modulus = world.public_key.group.p
        for position in range(THRESHOLD):
            for value in (0, modulus, 2 * modulus):
                shares = list(lowest)
                shares[position] = replace(shares[position], value=value)
                with pytest.raises(family.error, match="not a group element"):
                    world.combine(shares, verify=False)
                # verified, the share is dropped and there are too few
                with pytest.raises(family.error, match="have 2$"):
                    world.combine(shares, verify=True)

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


# ------------------------------------------------- what the combine computes
#: every ``t``-subset of these shapes
EVERY_SUBSET = [(4, 2), (4, 3), (5, 3), (7, 3), (10, 4)]
#: seeded subsets of these, shape -> how many
SAMPLED = {(16, 6): 50, (32, 11): 50, (64, 22): 50}
#: a second safe-prime group, so small that 4-of-10 weights outgrow ``q``:
#: the integer form holds at any width
TOY_GROUP = Group(p=2039, q=1019, g=4)


def signer_sets(num_parties: int, threshold: int):
    if (num_parties, threshold) in EVERY_SUBSET:
        return list(combinations(range(1, num_parties + 1), threshold))
    rng = random.Random(num_parties * 1000 + threshold)
    return [tuple(sorted(rng.sample(range(1, num_parties + 1), threshold)))
            for _ in range(SAMPLED[num_parties, threshold])]


def residue_form(group, selected) -> int:
    """The combine this one replaced: ``prod value_i^(λ_i mod q)``."""
    coefficients = lagrange_coefficients_at_zero(
        group.scalar_field, [share.signer for share in selected])
    return multi_exp([(share.value, coefficient) for coefficient, share
                      in zip(coefficients, selected)], group.p)


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
@pytest.mark.parametrize(
    "group, shape",
    [(DEFAULT_GROUP, shape) for shape in EVERY_SUBSET + list(SAMPLED)]
    + [(TOY_GROUP, shape) for shape in EVERY_SUBSET],
    ids=lambda value: "toy" if value is TOY_GROUP else "default"
    if value is DEFAULT_GROUP else "%d-of-%d" % value[::-1])
def test_integer_weights_equal_the_residue_form(family, group, shape):
    num_parties, threshold = shape
    rng = random.Random(num_parties * 1000 + threshold)
    schemes = family.deal(num_parties, threshold, rng, group=group)
    public_key = schemes[0].public_key
    statement = family.statement(schemes, rng, b"differential")
    good = [family.share(scheme, statement, rng) for scheme in schemes]
    # still members of the group, no longer shares of the secret
    bad = [replace(share, value=group.mul(share.value, group.g))
           for share in good]
    clean = family.combine(public_key, statement, good[:threshold],
                           verify=True)
    for signers in signer_sets(num_parties, threshold):
        for pool in (good, bad):
            selected = [pool[signer - 1] for signer in signers]
            expected = family.from_element(
                public_key, statement, residue_form(group, selected))
            assert family.combine(public_key, statement, selected,
                                  verify=False) == expected
            if pool is good:
                assert expected == clean


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1000])
def test_the_xor_tail_equals_the_byte_generator(length):
    """``encrypt`` and ``combine`` mask with one big-integer XOR; the bytes
    are those of the per-byte generator over the same keystream."""
    rng = random.Random(length)
    schemes = deal_threshold_enc(4, 2, rng)
    public_key = schemes[0].public_key
    plaintext = rng.randbytes(length)
    ciphertext = public_key.encrypt(plaintext, b"tail", rng)
    shares = [scheme.decryption_share(ciphertext, rng)
              for scheme in schemes[1:3]]
    shared = residue_form(public_key.group, shares)
    assert len(ciphertext.payload) == length
    assert ciphertext.payload == masked_byte_by_byte(
        plaintext, public_key.group, shared, b"tail")
    assert public_key.combine(ciphertext, shares) == plaintext \
        == masked_byte_by_byte(ciphertext.payload, public_key.group, shared,
                               b"tail")


class TestMultiExpShortAndSingleTerms:
    """``multi_exp`` answers a short exponent and a lone long term with
    builtin ``pow``; whatever the mix, the product is the product."""

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**256),
                  st.one_of(
                      st.just(0),
                      st.integers(min_value=0, max_value=15),
                      st.integers(min_value=0,
                                  max_value=2 << SHORT_EXPONENT_BITS),
                      st.integers(min_value=0, max_value=2**256))),
        max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_mixed_widths_match_product_of_pows(self, pairs):
        p = DEFAULT_GROUP.p
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, p) % p
        assert multi_exp(pairs, p) == expected

    def test_one_term_and_edges(self):
        p, q = DEFAULT_GROUP.p, DEFAULT_GROUP.q
        for base in (0, 1, 7, p - 1, p, p + 7):
            for exponent in (0, 1, 15, 16, (1 << SHORT_EXPONENT_BITS) - 1,
                             1 << SHORT_EXPONENT_BITS, q - 1, q):
                assert multi_exp([(base, exponent)], p) == pow(base, exponent, p)
                assert multi_exp([(base, exponent), (3, q - 2)], p) == \
                    pow(base, exponent, p) * pow(3, q - 2, p) % p
        assert multi_exp([(5, 3)], 1) == 0
        with pytest.raises(ValueError):
            multi_exp([(5, -3)], p)
