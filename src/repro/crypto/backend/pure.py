"""The always-available pure-Python big-integer tier.

Delegates to the CPython builtins and the hand-optimised helpers in
:mod:`repro.crypto.fastpath`; this tier defines the reference semantics that
every native tier must reproduce bit-for-bit.  It keeps no state: the bases
the schemes raise to key shares are answered before they reach it, as powers
of ``g`` with a known log (:meth:`repro.crypto.group.Group.exp`).
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto import fastpath


class PureBigint:
    """Big-integer primitives via CPython ``pow`` and the fastpath helpers."""

    name = "pure"

    @staticmethod
    def powm(base: int, exponent: int, modulus: int) -> int:
        if exponent < 0:
            raise ValueError("powm requires a non-negative exponent")
        return pow(base, exponent, modulus)

    @staticmethod
    def multi_powm(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
        return fastpath.multi_exp(pairs, modulus)

    @staticmethod
    def jacobi(a: int, n: int) -> int:
        return fastpath.jacobi(a, n)
