"""Prime-field arithmetic, polynomials and Lagrange interpolation.

This is the algebra underlying Shamir secret sharing and the threshold
primitives: a prime field ``F_q`` where ``q`` is the (prime) order of the
Schnorr group used by :mod:`repro.crypto.group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence


class FieldError(ValueError):
    """Raised on invalid field operations (e.g. inverting zero)."""


class PrimeField:
    """Arithmetic in the prime field ``F_q``.

    The class is intentionally free of element wrapper objects: elements are
    plain Python integers in ``[0, q)``, which keeps the hot paths (polynomial
    evaluation, Lagrange interpolation) fast.
    """

    def __init__(self, modulus: int) -> None:
        if modulus < 2:
            raise FieldError(f"field modulus must be >= 2, got {modulus}")
        self.q = modulus

    def reduce(self, x: int) -> int:
        """Map an integer into ``[0, q)``."""
        return x % self.q

    def random_element(self, rng) -> int:
        """Draw a uniformly random field element using ``rng.randrange``."""
        return rng.randrange(self.q)


@dataclass(frozen=True)
class Polynomial:
    """A polynomial over a prime field, stored as coefficients low-to-high.

    ``coeffs[0]`` is the constant term, which for Shamir sharing is the
    secret.
    """

    field: PrimeField
    coeffs: tuple[int, ...]

    @classmethod
    def random(cls, field: PrimeField, degree: int, constant: int, rng) -> "Polynomial":
        """Random polynomial of the given degree with fixed constant term."""
        if degree < 0:
            raise FieldError(f"polynomial degree must be >= 0, got {degree}")
        coeffs = [field.reduce(constant)]
        coeffs.extend(field.random_element(rng) for _ in range(degree))
        return cls(field=field, coeffs=tuple(coeffs))

    def evaluate(self, x: int) -> int:
        """Evaluate the polynomial at ``x`` using Horner's rule."""
        q = self.field.q
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = (acc * x + coeff) % q
        return acc


def _share_points(field: PrimeField, xs: Sequence[int]) -> tuple[int, ...]:
    """``xs`` reduced into ``[1, q)``; duplicates and zero are refused."""
    points = tuple(field.reduce(x) for x in xs)
    if len(set(points)) != len(points):
        raise FieldError(f"duplicate share indices in {list(xs)}")
    if any(p == 0 for p in points):
        raise FieldError("share index 0 is reserved for the secret")
    return points


def lagrange_ratios_at_zero(field: PrimeField, xs: Sequence[int]
                            ) -> tuple[tuple[int, ...], int]:
    """Lagrange coefficients at zero as integer ratios: ``(a, D)`` with
    ``λ_i = a_i / D`` in lowest terms (``D > 0``), so that
    ``f(0) = Σ λ_i · f(x_i)``.

    ``xs`` must be distinct and non-zero modulo ``q``.  For share indices
    ``1..n`` the ``a_i`` are small signed integers (2 and -1 for signers
    ``{1, 2}``; some 40 bits at 11-of-32) where the residues of ``λ_i``
    modulo ``q`` are full-width, which is what makes combining in the
    exponent cheap.  Not memoised here: the one hot caller,
    :func:`repro.crypto.group._combine_weights`, memoises on the same key.
    """
    points = _share_points(field, xs)
    numerators = [prod(x_j for x_j in points if x_j != x_i)
                  for x_i in points]
    denominators = [prod(x_j - x_i for x_j in points if x_j != x_i)
                    for x_i in points]
    common = lcm(*denominators)
    weights = [numerator * (common // denominator) for numerator, denominator
               in zip(numerators, denominators)]
    # lowest terms: {2, 4} is 2 and -1 over 1, not 4 and -2 over 2
    shared = gcd(common, *weights)
    return tuple(weight // shared for weight in weights), common // shared


def lagrange_coefficients_at_zero(field: PrimeField,
                                  xs: Sequence[int]) -> list[int]:
    """The same coefficients as residues ``λ_i mod q``: the combining step
    for Shamir shares.

    Derived from :func:`lagrange_ratios_at_zero`: the points are distinct in
    ``[1, q)``, so every difference ``x_j - x_i`` lies strictly between
    ``-q`` and ``q`` and ``q`` cannot divide ``D``.  Pinned equal to the
    field-division form in the tests.
    """
    weights, denominator = lagrange_ratios_at_zero(field, xs)
    q = field.q
    inverse = pow(denominator, -1, q)
    return [weight * inverse % q for weight in weights]


def interpolate_at_zero(field: PrimeField,
                        points: Sequence[tuple[int, int]]) -> int:
    """Interpolate ``f(0)`` from ``(x, f(x))`` pairs."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    coefficients = lagrange_coefficients_at_zero(field, xs)
    acc = 0
    for coeff, y in zip(coefficients, ys):
        acc = field.reduce(acc + coeff * y)
    return acc
