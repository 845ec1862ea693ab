"""Shamir secret sharing over the scalar field of the Schnorr group.

Shamir sharing is the common substrate of the three threshold primitives
(threshold signatures, threshold coin flipping, threshold encryption): a
dealer samples a degree-``t`` polynomial ``f`` with ``f(0)`` the secret and
hands ``f(i)`` to node ``i``.  Any ``t + 1`` shares reconstruct the secret (or,
for the threshold primitives, combine "in the exponent" without ever
reconstructing it); ``t`` or fewer reveal nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.field import (
    FieldError,
    Polynomial,
    PrimeField,
    interpolate_at_zero,
)


class ShamirError(ValueError):
    """Raised for invalid sharing parameters or malformed shares."""


@dataclass(frozen=True)
class ShamirShare:
    """One party's share: the evaluation ``f(index)`` of the dealer polynomial."""

    index: int
    value: int

    def as_point(self) -> tuple[int, int]:
        """Return the share as an ``(x, y)`` interpolation point."""
        return (self.index, self.value)


class ShamirDealer:
    """Deals and recombines Shamir shares for an ``(threshold, n)`` scheme.

    ``threshold`` is the number of shares *required* to reconstruct, i.e. the
    polynomial degree is ``threshold - 1``.  In the BFT setting with
    ``n = 3f + 1`` nodes the schemes in this package use ``threshold = f + 1``
    (coin, encryption) or ``threshold = 2f + 1`` (signatures proving quorum
    participation), following HoneyBadgerBFT/Dumbo conventions.
    """

    def __init__(self, field: PrimeField, num_parties: int, threshold: int) -> None:
        if num_parties < 1:
            raise ShamirError(f"need at least one party, got {num_parties}")
        if not 1 <= threshold <= num_parties:
            raise ShamirError(
                f"threshold must be in [1, {num_parties}], got {threshold}")
        self.field = field
        self.num_parties = num_parties
        self.threshold = threshold

    def deal(self, secret: int, rng) -> list[ShamirShare]:
        """Split ``secret`` into ``num_parties`` shares."""
        polynomial = Polynomial.random(self.field, degree=self.threshold - 1,
                                       constant=secret, rng=rng)
        return [ShamirShare(index=i, value=polynomial.evaluate(i))
                for i in range(1, self.num_parties + 1)]

    def recover(self, shares: Sequence[ShamirShare]) -> int:
        """Reconstruct the secret from at least ``threshold`` distinct shares.

        Repeated submissions of the *same* share (same field-reduced index,
        same value -- e.g. a retransmitted message) are deduplicated before
        the threshold shares are selected, in first-seen order.  Two shares
        claiming the same index with *different* values are contradictory --
        at least one is forged -- and raise :class:`ShamirError` naming the
        offending index rather than silently interpolating garbage.
        """
        distinct: dict[int, ShamirShare] = {}
        for share in shares:
            index = self.field.reduce(share.index)
            if index == 0:
                raise ShamirError("share index 0 is reserved for the secret")
            known = distinct.get(index)
            if known is None:
                distinct[index] = share
            elif self.field.reduce(known.value) != self.field.reduce(share.value):
                raise ShamirError(
                    f"conflicting values for share index {share.index}")
        if len(distinct) < self.threshold:
            raise ShamirError(
                f"need {self.threshold} distinct shares, got {len(distinct)}")
        points = [share.as_point()
                  for share in list(distinct.values())[: self.threshold]]
        try:
            return interpolate_at_zero(self.field, points)
        except FieldError as exc:  # zero index after reduction etc.
            raise ShamirError(str(exc)) from exc
