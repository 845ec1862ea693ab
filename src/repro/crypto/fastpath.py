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
* :func:`jacobi` -- a binary Jacobi symbol.  For a safe prime ``P = 2q + 1``
  the order-``q`` subgroup is exactly the set of quadratic residues, so
  subgroup membership reduces to ``jacobi(a, P) == 1`` -- ~5x cheaper than
  the defining test ``a^q == 1 mod P`` and exactly equivalent.
* :func:`multi_exp` -- interleaved windowed multi-exponentiation
  ``prod base_i^{e_i} mod p`` sharing one squaring chain across all terms.
"""

from __future__ import annotations

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
