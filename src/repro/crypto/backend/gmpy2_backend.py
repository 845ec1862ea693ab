"""gmpy2-backed big-integer tier (the preferred native tier when installed).

gmpy2 wraps libgmp with near-zero per-call overhead, so when the optional
``repro[native]`` extra is installed this tier beats the ctypes-based GMP
tier.  It is probed first; a failed import is recorded as the reason the
tier is unavailable.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.backend import BackendUnavailableError


class Gmpy2Bigint:
    """Big-integer primitives via :mod:`gmpy2`."""

    name = "gmpy2"

    def __init__(self, gmpy2) -> None:
        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        self._powmod = gmpy2.powmod
        self._jacobi = gmpy2.jacobi

    def powm(self, base: int, exponent: int, modulus: int) -> int:
        if exponent < 0:
            raise ValueError("powm requires a non-negative exponent")
        if modulus <= 0:
            return pow(base, exponent, modulus)
        return int(self._powmod(self._mpz(base), exponent, modulus))

    def multi_powm(self, pairs: Sequence[tuple[int, int]],
                   modulus: int) -> int:
        if modulus <= 0:
            raise ValueError("multi_powm requires a positive modulus")
        if not pairs:
            return 1 % modulus
        mpz = self._mpz
        powmod = self._powmod
        mod = mpz(modulus)
        acc = mpz(1) % mod
        for base, exponent in pairs:
            if exponent < 0:
                raise ValueError("multi_exp requires non-negative exponents")
            acc = acc * powmod(mpz(base), exponent, mod) % mod
        return int(acc)

    def jacobi(self, a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValueError("jacobi symbol requires odd positive n")
        return int(self._jacobi(self._mpz(a), self._mpz(n)))


def load_gmpy2_bigint() -> Gmpy2Bigint:
    """The gmpy2 tier, or :class:`BackendUnavailableError` saying why it did
    not load."""
    try:
        import gmpy2
    except ImportError as error:
        raise BackendUnavailableError(f"ImportError: {error}") from error
    try:
        tier = Gmpy2Bigint(gmpy2)
        checked = tier.powm(7, 5, 11) == pow(7, 5, 11)
    except (AttributeError, TypeError, ValueError) as error:
        raise BackendUnavailableError(
            f"{type(error).__name__}: {error}") from error
    if not checked:
        raise BackendUnavailableError("self-check failed")
    return tier
