"""Bit-identity property tests for the crypto fast paths.

The performance layer (fixed-base tables, Jacobi membership, memoised
hashing, cached Lagrange coefficients, multi-exponentiation) must never
change a single output bit relative to the seed implementations, which are
kept as ``*_reference`` functions in ``tests/reference.py`` exactly so these
tests can compare them.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto.fastpath import (
    FixedBaseTable,
    jacobi,
    multi_exp,
)
from repro.crypto.field import (
    PrimeField,
    lagrange_coefficients_at_zero,
)
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.threshold_sig import deal_threshold_sig

from tests.reference import (
    hash_to_group_reference,
    is_member_reference,
    lagrange_coefficients_at_zero_reference,
    power_of_g_reference,
)


class TestFixedBaseTable:
    def test_edge_exponents_match_pow(self):
        group = DEFAULT_GROUP
        for exponent in (0, 1, 2, group.q - 1, group.q, group.q + 5,
                         2 * group.q - 1, 123456789):
            assert group.power_of_g(exponent) == power_of_g_reference(group, exponent)

    @given(exponent=st.integers(min_value=0, max_value=2**300))
    @settings(max_examples=60, deadline=None)
    def test_random_exponents_match_pow(self, exponent):
        group = DEFAULT_GROUP
        assert group.power_of_g(exponent) == power_of_g_reference(group, exponent)

    def test_small_toy_group(self):
        # p = 23 = 2*11 + 1, g = 2 generates the order-11 subgroup {1,2,3,4,6,8,9,12,13,16,18}.
        table = FixedBaseTable(2, 23, 11)
        for exponent in range(25):
            assert table.pow(exponent) == pow(2, exponent % 11, 23)


class TestMembership:
    @given(value=st.integers(min_value=-5, max_value=2**258))
    @settings(max_examples=80, deadline=None)
    def test_is_member_matches_reference(self, value):
        group = DEFAULT_GROUP
        assert group.is_member(value % (group.p + 7)) == \
            is_member_reference(group, value % (group.p + 7))

    def test_members_and_non_members(self):
        group = DEFAULT_GROUP
        rng = random.Random(5)
        for _ in range(20):
            member = group.power_of_g(rng.randrange(1, group.q))
            assert group.is_member(member)
            # p - member is the non-residue companion in a safe-prime group.
            assert not group.is_member(group.p - member)
        assert group.is_member(1)
        assert not group.is_member(0)
        assert not group.is_member(group.p)

    @given(value=st.integers(min_value=1, max_value=2**255))
    @settings(max_examples=60, deadline=None)
    def test_jacobi_matches_euler_criterion(self, value):
        p = DEFAULT_GROUP.p
        q = DEFAULT_GROUP.q
        value %= p
        if value == 0:
            assert jacobi(value, p) == 0
        else:
            euler = pow(value, q, p)
            assert jacobi(value, p) == (1 if euler == 1 else -1)


class TestMultiExp:
    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**256),
                  st.integers(min_value=0, max_value=2**256)),
        min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_product_of_pows(self, pairs):
        p = DEFAULT_GROUP.p
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base % p, exponent, p) % p
        assert multi_exp(pairs, p) == expected

    def test_empty_product_is_identity(self):
        assert multi_exp([], DEFAULT_GROUP.p) == 1


class TestHashing:
    def test_hash_to_group_matches_reference(self):
        group = DEFAULT_GROUP
        for parts in [(b"m",), (b"tsig", b"hello"), (b"", b""), (b"x" * 200,)]:
            assert group.hash_to_group(*parts) == \
                hash_to_group_reference(group, *parts)

    def test_cache_returns_stable_values(self):
        group = DEFAULT_GROUP
        assert group.hash_to_group(b"stable") == group.hash_to_group(b"stable")
        assert group.hash_to_group(b"stable") != group.hash_to_group(b"other")


class TestLagrangeCache:
    @given(indices=st.lists(st.integers(min_value=1, max_value=200),
                            min_size=1, max_size=12, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_cached_matches_reference(self, indices):
        field = PrimeField(DEFAULT_GROUP.q)
        assert lagrange_coefficients_at_zero(field, indices) == \
            lagrange_coefficients_at_zero_reference(field, indices)

    @given(indices=st.lists(st.integers(min_value=1, max_value=50),
                            min_size=2, max_size=8, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_combine_bit_identical_over_random_signer_sets(self, indices):
        """Signatures combined through the cached-coefficient + multi-exp
        path equal a by-hand seed-style combination for any signer set."""
        rng = random.Random(11)
        num_parties = max(indices)
        threshold = len(indices)
        schemes = deal_threshold_sig(num_parties, threshold, rng,
                                     master_secret=424242)
        public_key = schemes[0].public_key
        message = b"property-%d" % sum(indices)
        shares = [schemes[i - 1].sign_share(message, rng) for i in indices]
        signature = public_key.combine(message, shares)
        # Seed-style combination: sequential Lagrange-in-the-exponent.
        group = public_key.group
        selected = sorted(shares, key=lambda s: s.signer)[:threshold]
        coefficients = lagrange_coefficients_at_zero_reference(
            group.scalar_field, [share.signer for share in selected])
        combined = 1
        for coefficient, share in zip(coefficients, selected):
            combined = group.mul(combined, group.exp(share.value, coefficient))
        assert signature.value == combined
        # Any t-subset combines to the same H(m)^s.
        assert combined == group.exp(
            public_key.hash_message(message), 424242)
