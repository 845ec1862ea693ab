"""The big-integer calls the crypto layer makes, in one place.

Every exponentiation the schemes need goes through :func:`powm`,
:func:`multi_powm` or :func:`jacobi` here, on CPython's builtin ``pow`` and
the helpers in :mod:`repro.crypto.fastpath`.  They stay a module-level seam
so tests and benchmarks can count the calls: on the honest path the bases
are powers of ``g`` with a known log (:meth:`repro.crypto.group.Group.exp`)
and never get this far.

Host big-integer speed enters no result -- what a board pays for crypto is
charged in virtual time by :class:`repro.crypto.timing.CryptoSuite` -- so
there is one path, pure Python.  :func:`current_mode` and
:func:`backend_info` report it for logs and benchmark records.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto import fastpath

__all__ = ["backend_info", "current_mode", "jacobi", "multi_powm", "powm"]


def current_mode() -> str:
    """The big-integer path in use: always ``"pure"``."""
    return "pure"


def backend_info() -> dict:
    """The path in use, per primitive, for logs and benchmark records."""
    return {"mode": "pure", "bigint": "pure", "matrix": "pure"}


def powm(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` (exponent must be non-negative)."""
    if exponent < 0:
        raise ValueError("powm requires a non-negative exponent")
    return pow(base, exponent, modulus)


def multi_powm(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """``prod base_i ** exponent_i mod modulus``."""
    return fastpath.multi_exp(pairs, modulus)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a | n)`` for odd positive ``n``."""
    return fastpath.jacobi(a, n)
