"""Shared fast-path primitives for the pure-Python crypto layer.

Every experiment funnels its cryptography through a handful of modular
exponentiations over a 256-bit safe-prime group, so this module collects the
classic software optimisations that real BFT implementations (HoneyBadgerBFT,
BEAT) rely on, implemented so that the *outputs* are bit-identical to the
naive code they replace:

* :class:`FixedBaseTable` -- fixed-base windowed precomputation: one table of
  ``base^(j * 2^(w*i))`` built per (base, modulus) turns a 256-bit
  exponentiation into ~32 table lookups and modular multiplications, which in
  CPython beats ``pow(base, e, p)`` by roughly 6x.
* :class:`CompactBaseTable` -- the same idea at a sixth of the bytes of the
  narrowest useful :class:`FixedBaseTable`: one row per 16 exponent bits
  shared by four interleaved sub-exponents.  ~17 KB and ~1.5 ``pow`` calls to
  build, ~3.7x faster than ``pow`` to use, which makes a table per *recurring*
  base affordable (:mod:`repro.crypto.backend.pure` decides which those are).
* :func:`jacobi` -- a binary Jacobi symbol.  For a safe prime ``P = 2q + 1``
  the order-``q`` subgroup is exactly the set of quadratic residues, so
  subgroup membership reduces to ``jacobi(a, P) == 1`` -- ~5x cheaper than
  the defining test ``a^q == 1 mod P`` and exactly equivalent.
* :func:`multi_exp` -- interleaved windowed multi-exponentiation
  ``prod base_i^{e_i} mod p`` sharing one squaring chain across all terms.
"""

from __future__ import annotations

import sys
from typing import Sequence


# --------------------------------------------------------------------- tables
class FixedBaseTable:
    """Fixed-base windowed exponentiation table for one ``(base, modulus)``.

    With window width ``w`` the exponent is split into ``ceil(bits / w)``
    digits; row ``i`` stores ``base^(j * 2^(w*i))`` for every digit value
    ``j``.  An exponentiation is then one multiplication per non-zero digit.
    The default ``w = 8`` costs ~``32 * 255`` multiplications to build for a
    256-bit order (a few milliseconds, amortised over every later call) and
    ~32 multiplications per exponentiation.
    """

    __slots__ = ("base", "modulus", "order", "window", "_mask", "_rows")

    def __init__(self, base: int, modulus: int, order: int,
                 window: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window width must be >= 1, got {window}")
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        self.window = window
        self._mask = (1 << window) - 1
        num_windows = (max(order.bit_length(), 1) + window - 1) // window
        rows = []
        row_base = self.base
        for _ in range(num_windows):
            row = [1] * (1 << window)
            acc = 1
            for digit in range(1, 1 << window):
                acc = (acc * row_base) % modulus
                row[digit] = acc
            rows.append(row)
            # acc == row_base^(2^w - 1), so one more multiply advances the row.
            row_base = acc * row_base % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` (exponent reduced mod order)."""
        exponent %= self.order
        acc = 1
        mask = self._mask
        window = self.window
        modulus = self.modulus
        for row in self._rows:
            digit = exponent & mask
            if digit:
                acc = acc * row[digit] % modulus
            exponent >>= window
            if not exponent:
                break
        return acc


class CompactBaseTable:
    """A fixed-base table small and cheap enough to build for *many* bases.

    :class:`FixedBaseTable` stores a row for every window of the exponent, so
    its speed is bought with bytes (45 KB at window 3, 560 KB at window 8 on
    the 256-bit group).  This table keeps 4-bit windows but only one row per
    16 exponent bits: row ``i`` holds ``base^(d * 2^(16*i))`` for ``d`` in
    ``0..15``.  The four nibbles of each 16-bit limb then index the *same*
    row into four accumulators -- the exponent is split into four interleaved
    sub-exponents, ``e = e0 + 16*e1 + 256*e2 + 4096*e3`` -- which a final
    Horner step (twelve squarings) recombines.  For a 256-bit modulus that is
    16 rows (~17 KB, ~0.2 ms to build: about 1.5 builtin ``pow`` calls) and 64
    table multiplications per exponentiation, ~27% of the time of
    ``pow(base, e, modulus)``.  Digits are read from the exponent's bytes, so
    the loop does no big-integer shifting.
    """

    __slots__ = ("modulus", "limit", "_rows")

    @staticmethod
    def estimated_bytes(modulus: int) -> int:
        """Heap footprint of a table for ``modulus``: 16-slot rows plus
        residues (what a cache needs to budget tables before building one)."""
        num_rows = (modulus.bit_length() + 15) // 16
        return num_rows * (56 + 8 * 16 + 15 * sys.getsizeof(modulus))

    def __init__(self, base: int, modulus: int) -> None:
        self.modulus = modulus
        num_rows = (modulus.bit_length() + 15) // 16
        #: exponents must lie in ``range(limit)``
        self.limit = 1 << (16 * num_rows)
        rows = []
        row_base = base % modulus
        for _ in range(num_rows):
            row = [1] * 16
            acc = 1
            for digit in range(1, 16):
                acc = acc * row_base % modulus
                row[digit] = acc
            rows.append(row)
            # acc == row_base^15: one multiply gives ^16, then 12 squarings
            row_base = pow(acc * row_base % modulus, 1 << 12, modulus)
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` for ``0 <= exponent < limit``."""
        modulus = self.modulus
        limbs = exponent.to_bytes(2 * len(self._rows), "little")
        acc0 = acc1 = acc2 = acc3 = 1
        index = 0
        for row in self._rows:
            low = limbs[index]
            high = limbs[index + 1]
            index += 2
            acc0 = acc0 * row[low & 15] % modulus
            acc1 = acc1 * row[low >> 4] % modulus
            acc2 = acc2 * row[high & 15] % modulus
            acc3 = acc3 * row[high >> 4] % modulus
        acc = pow(acc3, 16, modulus) * acc2 % modulus
        acc = pow(acc, 16, modulus) * acc1 % modulus
        return pow(acc, 16, modulus) * acc0 % modulus


# ------------------------------------------------------------------ membership
def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a | n)`` for odd ``n > 0`` (binary algorithm).

    Trailing zeros are stripped in bulk (``a & -a`` isolates the lowest set
    bit) rather than one shift per loop iteration, which roughly halves the
    Python-level iteration count on 256-bit inputs.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        if twos:
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                result = -result
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


# -------------------------------------------------------------------- multi-exp
#: Exponents up to this many bits go to builtin ``pow``: the interleaved
#: method builds a ``2^window``-entry table per base before it looks at the
#: exponent, and for a short exponent that table is most of the work.
SHORT_EXPONENT_BITS = 16


def multi_exp(pairs: Sequence[tuple[int, int]], modulus: int,
              window: int = 4) -> int:
    """Compute ``prod base^exponent mod modulus`` with shared squarings.

    ``pairs`` is a sequence of ``(base, exponent)`` with non-negative
    exponents.  The interleaved windowed method performs one squaring chain
    over the longest exponent and one table multiplication per non-zero
    digit of each exponent, which beats independent ``pow()`` calls once the
    product has a handful of long terms.  Terms that cannot gain from the
    shared chain -- a short exponent, or the only long one -- are builtin
    ``pow`` calls multiplied in at the end: the same integer either way.
    """
    result = 1 % modulus
    long_terms = []
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("multi_exp requires non-negative exponents")
        if exponent.bit_length() <= SHORT_EXPONENT_BITS:
            result = result * pow(base, exponent, modulus) % modulus
        else:
            long_terms.append((base, exponent))
    if len(long_terms) == 1:
        base, exponent = long_terms[0]
        return result * pow(base, exponent, modulus) % modulus
    if long_terms:
        result = result * _interleaved(long_terms, modulus, window) % modulus
    return result


def _interleaved(pairs: Sequence[tuple[int, int]], modulus: int,
                 window: int) -> int:
    mask = (1 << window) - 1
    # factors_at[p] collects the table entries to multiply in at digit
    # position p, so the main loop touches only non-zero digits instead of
    # probing every (term, position) pair.
    factors_at: list[list[int]] = []
    for base, exponent in pairs:
        base %= modulus
        # Per-term table of base^0 .. base^(2^w - 1).
        table = [1] * (1 << window)
        acc = 1
        for digit in range(1, 1 << window):
            acc = (acc * base) % modulus
            table[digit] = acc
        position = 0
        while exponent:
            digit = exponent & mask
            if digit:
                while len(factors_at) <= position:
                    factors_at.append([])
                factors_at[position].append(table[digit])
            exponent >>= window
            position += 1
    result = 1
    for factors in reversed(factors_at):
        if result != 1:
            for _ in range(window):
                result = result * result % modulus
        for factor in factors:
            result = result * factor % modulus
    return result
