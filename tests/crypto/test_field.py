"""Tests for prime-field arithmetic, polynomials and Lagrange interpolation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import (
    FieldError,
    Polynomial,
    PrimeField,
    interpolate_at_zero,
    lagrange_coefficients_at_zero,
)
from repro.crypto.group import DEFAULT_GROUP

FIELD = PrimeField(DEFAULT_GROUP.q)
SMALL_FIELD = PrimeField(97)


class TestPrimeField:
    def test_reduce_maps_into_range(self):
        assert 0 <= FIELD.reduce(-1) < FIELD.q
        assert FIELD.reduce(FIELD.q) == 0

    def test_invalid_modulus_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(1)

    def test_random_element_in_range(self):
        rng = random.Random(0)
        for _ in range(20):
            assert 0 <= SMALL_FIELD.random_element(rng) < 97


class TestPolynomial:
    def test_constant_term_is_secret(self):
        rng = random.Random(1)
        poly = Polynomial.random(SMALL_FIELD, degree=3, constant=42, rng=rng)
        assert poly.evaluate(0) == 42

    def test_degree(self):
        rng = random.Random(1)
        poly = Polynomial.random(SMALL_FIELD, degree=5, constant=1, rng=rng)
        assert len(poly.coeffs) == 6

    def test_negative_degree_rejected(self):
        with pytest.raises(FieldError):
            Polynomial.random(SMALL_FIELD, degree=-1, constant=0, rng=random.Random(0))

    def test_evaluate_known_polynomial(self):
        # f(x) = 3 + 2x + x^2 over F_97
        poly = Polynomial(field=SMALL_FIELD, coeffs=(3, 2, 1))
        assert poly.evaluate(1) == 6
        assert poly.evaluate(2) == (3 + 4 + 4) % 97
        assert poly.evaluate(0) == 3


class TestLagrange:
    def test_coefficients_reconstruct_constant(self):
        rng = random.Random(7)
        poly = Polynomial.random(SMALL_FIELD, degree=2, constant=55, rng=rng)
        xs = [1, 2, 3]
        ys = [poly.evaluate(x) for x in xs]
        coefficients = lagrange_coefficients_at_zero(SMALL_FIELD, xs)
        total = 0
        for coefficient, y in zip(coefficients, ys):
            total = SMALL_FIELD.reduce(total + coefficient * y)
        assert total == 55

    def test_interpolate_at_zero(self):
        rng = random.Random(8)
        poly = Polynomial.random(FIELD, degree=3, constant=999, rng=rng)
        points = [(x, poly.evaluate(x)) for x in (2, 5, 9, 11)]
        assert interpolate_at_zero(FIELD, points) == 999

    def test_duplicate_points_rejected(self):
        with pytest.raises(FieldError):
            lagrange_coefficients_at_zero(SMALL_FIELD, [1, 1, 2])

    def test_zero_index_rejected(self):
        with pytest.raises(FieldError):
            lagrange_coefficients_at_zero(SMALL_FIELD, [0, 1, 2])

    @given(secret=st.integers(min_value=0, max_value=96),
           degree=st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_interpolation_recovers_any_secret(self, secret, degree):
        rng = random.Random(secret * 7 + degree)
        poly = Polynomial.random(SMALL_FIELD, degree=degree, constant=secret, rng=rng)
        xs = list(range(1, degree + 2))
        points = [(x, poly.evaluate(x)) for x in xs]
        assert interpolate_at_zero(SMALL_FIELD, points) == secret
