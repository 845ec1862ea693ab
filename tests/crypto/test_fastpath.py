"""Bit-identity property tests for the crypto fast paths.

The performance layer (fixed-base tables, Jacobi membership, memoised
hashing, cached Lagrange coefficients, multi-exponentiation) must never
change a single output bit relative to the seed implementations, which are
kept as ``*_reference`` functions in ``tests/reference.py`` exactly so these
tests can compare them.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.crypto import backend
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


class TestBackendCalls:
    """The three big-integer calls the crypto layer makes through
    :mod:`repro.crypto.backend` are ``pow`` and the fastpath helpers."""

    def test_current_mode_is_pure(self):
        assert backend.current_mode() == "pure"

    def test_backend_info_reports_the_pure_path(self):
        assert backend.backend_info() == {"mode": "pure", "bigint": "pure",
                                          "matrix": "pure"}

    def test_match_pow_multi_exp_and_jacobi_on_a_random_grid(self):
        p, q = DEFAULT_GROUP.p, DEFAULT_GROUP.q
        rnd = random.Random(5)
        for count in range(9):
            pairs = [(rnd.randrange(2 * p), rnd.randrange(q))
                     for _ in range(count)]
            for base, exponent in pairs:
                modulus = rnd.choice((p, rnd.randrange(1, p)))
                assert backend.powm(base, exponent, modulus) == \
                    pow(base, exponent, modulus)
                assert backend.jacobi(base, p) == jacobi(base, p)
            assert backend.multi_powm(pairs, p) == multi_exp(pairs, p)

    @given(base=st.integers(min_value=0, max_value=DEFAULT_GROUP.p * 2),
           exponent=st.integers(min_value=0, max_value=DEFAULT_GROUP.q),
           modulus=st.integers(min_value=1, max_value=DEFAULT_GROUP.p))
    @settings(max_examples=60, deadline=None)
    def test_powm_matches_pow(self, base, exponent, modulus):
        assert backend.powm(base, exponent, modulus) == \
            pow(base, exponent, modulus)

    @pytest.mark.parametrize("base, exponent, modulus", [
        (0, 0, 7), (0, 5, 7), (5, 0, 7), (7, 3, 1),
        (DEFAULT_GROUP.p - 1, DEFAULT_GROUP.q, DEFAULT_GROUP.p),
        (DEFAULT_GROUP.p + 3, 2, DEFAULT_GROUP.p)])
    def test_powm_edge_cases(self, base, exponent, modulus):
        assert backend.powm(base, exponent, modulus) == \
            pow(base, exponent, modulus)

    def test_powm_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError):
            backend.powm(3, -1, 7)

    @given(count=st.integers(min_value=0, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_multi_powm_is_the_product_of_powers(self, count, seed):
        p, q = DEFAULT_GROUP.p, DEFAULT_GROUP.q
        rnd = random.Random(seed)
        pairs = [(rnd.randrange(p), rnd.randrange(q)) for _ in range(count)]
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, p) % p
        assert backend.multi_powm(pairs, p) == expected

    def test_multi_powm_empty_is_identity(self):
        assert backend.multi_powm([], DEFAULT_GROUP.p) == 1

    def test_multi_powm_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError):
            backend.multi_powm([(3, -1)], DEFAULT_GROUP.p)

    @given(value=st.integers(min_value=-DEFAULT_GROUP.p,
                             max_value=DEFAULT_GROUP.p * 2))
    @settings(max_examples=60, deadline=None)
    def test_jacobi_is_eulers_criterion_on_the_group_prime(self, value):
        p = DEFAULT_GROUP.p
        euler = pow(value, (p - 1) // 2, p)
        assert backend.jacobi(value, p) == {0: 0, 1: 1, p - 1: -1}[euler]

    @pytest.mark.parametrize("modulus", [8, 2, 0, -3])
    def test_jacobi_rejects_a_modulus_that_is_not_odd_and_positive(
            self, modulus):
        with pytest.raises(ValueError):
            backend.jacobi(3, modulus)

    def test_backend_info_loads_no_native_machinery(self):
        """Reporting the path probes nothing: no numpy, no ctypes and no
        compiler subprocess in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = ("import sys\n"
                 "from repro.crypto.backend import backend_info\n"
                 "assert backend_info()['mode'] == 'pure'\n"
                 "print(sorted({'numpy', 'ctypes', 'subprocess'}"
                 " & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=src)
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"

    def test_no_module_reaches_for_native_arithmetic(self):
        """One big-integer path: no source module names a native arithmetic
        library or build tool, or a backend-selection variable."""
        root = os.path.dirname(repro.__file__)
        banned = ("numpy", "ctypes", "subprocess", "gmpy2",
                  "REPRO_CRYPTO_BACKEND")
        found = []
        for directory, _subdirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(directory, name)) as handle:
                    text = handle.read()
                found += [(name, word) for word in banned if word in text]
        assert found == []


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
