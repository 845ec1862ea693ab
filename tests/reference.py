"""The seed implementations the crypto fast paths are pinned against.

Uncached and naive on purpose: the bit-identity property tests compare the
library's tables, memos and Jacobi tests with these, and
``benchmarks/bench_hotpath_micro.py`` times them as the "before" rows.
Nothing in ``src/`` calls them.  Builtin ``pow`` throughout, never
``Group.exp``: a reference must not run through the recurring-base tables
it is compared against.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.field import PrimeField, _share_points
from repro.crypto.group import ChaumPedersenProof, Group, _challenge


def power_of_g_reference(group: Group, exponent: int) -> int:
    """``g ** exponent`` by builtin ``pow``."""
    return pow(group.g, exponent % group.q, group.p)


def is_member_reference(group: Group, a: int) -> bool:
    """Membership by ``a^q == 1 mod p``, uncached."""
    if not 1 <= a < group.p:
        return False
    return pow(a, group.q, group.p) == 1


def hash_to_group_reference(group: Group, *parts: bytes) -> int:
    """Uncached hash-to-group."""
    exponent = group.hash_to_scalar(b"h2g", *parts)
    # Avoid the identity element, which would break share verification.
    return power_of_g_reference(group, exponent if exponent != 0 else 1)


def verify_dlog_equality_reference(group: Group, proof: ChaumPedersenProof,
                                   base_h: int, value_g: int, value_h: int,
                                   context: bytes = b"") -> bool:
    """Chaum-Pedersen verification past every cache and fast path: naive
    membership tests and four full ``pow()`` calls per proof."""
    if not (is_member_reference(group, value_g)
            and is_member_reference(group, value_h)):
        return False
    challenge = _challenge(group, context, base_h, value_g, value_h,
                           proof.commitment_g, proof.commitment_h)
    p, q = group.p, group.q
    lhs_g = power_of_g_reference(group, proof.response)
    rhs_g = group.mul(proof.commitment_g, pow(value_g, challenge % q, p))
    if lhs_g != rhs_g:
        return False
    lhs_h = pow(base_h, proof.response % q, p)
    rhs_h = group.mul(proof.commitment_h, pow(value_h, challenge % q, p))
    return lhs_h == rhs_h


def lagrange_coefficients_at_zero_reference(field: PrimeField,
                                            xs: Sequence[int]) -> list[int]:
    """Lagrange coefficients at zero, uncached, by field division."""
    points = _share_points(field, xs)
    coefficients = []
    for i, x_i in enumerate(points):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(points):
            if i == j:
                continue
            numerator = field.mul(numerator, field.neg(x_j))
            denominator = field.mul(denominator, field.sub(x_i, x_j))
        coefficients.append(field.div(numerator, denominator))
    return coefficients
