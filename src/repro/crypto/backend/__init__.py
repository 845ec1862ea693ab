"""Pluggable acceleration backend for the crypto/erasure hot paths.

The reproduction's floor is pure-Python big-integer arithmetic: threshold
share combination and Reed-Solomon decode dominate every consensus
experiment once the simulator kernel is fast.  This package selects, per
primitive, between the always-available pure fastpath and an optional
native path:

* big integers -- ``gmpy2`` when installed (``pip install .[native]``),
  otherwise the system ``libgmp`` through a small compiled shim
  (:mod:`repro.crypto.backend.gmp`);
* modular matrix products (erasure encode/decode) -- numpy int64 with
  16-bit limb splitting (:mod:`repro.crypto.backend.matrix`).

Selection is **opt-in** via ``REPRO_CRYPTO_BACKEND``:

* unset or ``pure``  -- pure Python only (the default: recorded artifacts
  never depend on what happens to be installed);
* ``auto``   -- best available tier per primitive, silently falling back
  to pure;
* ``native`` -- require a native big-integer tier, raising
  :class:`BackendUnavailableError` with the probe outcome when none loads.

Every tier is bit-identical to the pure path by construction and pinned by
the property tests in ``tests/crypto/test_backend.py``; forcing either
path through :func:`use` can never change a digest, a byte count or an RNG
stream -- only wall-clock speed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Sequence

from repro.crypto.backend.pure import PureBigint

__all__ = [
    "BackendUnavailableError",
    "activate",
    "backend_info",
    "current_mode",
    "has_native_bigint",
    "jacobi",
    "matrix_engine",
    "multi_powm",
    "powm",
    "use",
]

_ENV_VAR = "REPRO_CRYPTO_BACKEND"
_MODES = ("pure", "auto", "native")
_UNPROBED = object()


class BackendUnavailableError(RuntimeError):
    """A native tier did not load (the message says why), or ``native`` was
    forced and none did."""


_PURE_BIGINT = PureBigint()

#: probe results, memoised per process (compiling the shim is not free)
_native_bigint = _UNPROBED
_native_matrix = _UNPROBED
#: tier name -> why the probe passed it over
_bigint_probe_failures: dict[str, str] = {}

#: active selection
_mode = "pure"
_bigint = _PURE_BIGINT
_matrix = None


def _probe_native_bigint():
    global _native_bigint
    if _native_bigint is _UNPROBED:
        from repro.crypto.backend.gmp import load_gmp_bigint
        from repro.crypto.backend.gmpy2_backend import load_gmpy2_bigint
        _native_bigint = None
        for name, load in (("gmpy2", load_gmpy2_bigint),
                           ("gmp-shim", load_gmp_bigint)):
            try:
                _native_bigint = load()
                break
            except BackendUnavailableError as why:
                _bigint_probe_failures[name] = str(why)
    return _native_bigint


def _probe_native_matrix():
    global _native_matrix
    if _native_matrix is _UNPROBED:
        from repro.crypto.backend.matrix import load_numpy_matrix
        _native_matrix = load_numpy_matrix()
    return _native_matrix


def resolve_mode(env_value: Optional[str]) -> str:
    """Map the ``REPRO_CRYPTO_BACKEND`` value to a mode (unset -> pure)."""
    if env_value is None or env_value == "":
        return "pure"
    value = env_value.strip().lower()
    if value not in _MODES:
        raise BackendUnavailableError(
            f"{_ENV_VAR}={env_value!r} is not a valid backend mode; "
            f"expected one of {', '.join(_MODES)}")
    return value


def activate(mode: str) -> None:
    """Select the backend tiers for ``mode`` (process-wide)."""
    global _mode, _bigint, _matrix
    mode = resolve_mode(mode)
    if mode == "pure":
        _mode, _bigint, _matrix = "pure", _PURE_BIGINT, None
        return
    native = _probe_native_bigint()
    matrix = _probe_native_matrix()
    if mode == "native" and native is None:
        reasons = "; ".join(f"{name}: {why}" for name, why
                            in _bigint_probe_failures.items())
        raise BackendUnavailableError(
            "REPRO_CRYPTO_BACKEND=native but no native big-integer tier "
            f"loaded ({reasons}). The shim tier needs the "
            "gmp shared library and headers plus a C compiler; otherwise "
            "install the 'native' extra (pip install .[native]) or unset "
            "the variable to run pure Python.")
    _mode = mode
    _bigint = native if native is not None else _PURE_BIGINT
    _matrix = matrix
    return


@contextmanager
def use(mode: str):
    """Temporarily force a backend mode (tests, benchmarks)."""
    saved = (_mode, _bigint, _matrix)
    try:
        activate(mode)
        yield backend_info()
    finally:
        _restore(saved)


def _restore(saved) -> None:
    global _mode, _bigint, _matrix
    _mode, _bigint, _matrix = saved


def current_mode() -> str:
    """The active mode (``pure``, ``auto`` or ``native``)."""
    return _mode


def has_native_bigint() -> bool:
    """True when big-integer ops run on a native tier right now."""
    return _bigint is not _PURE_BIGINT


def matrix_engine():
    """The active matrix engine (numpy) or ``None`` (pure fallback)."""
    return _matrix


def backend_info() -> dict:
    """Active selection plus probe availability, for logs and benchmarks."""
    native = _probe_native_bigint()
    matrix = _probe_native_matrix()
    return {
        "mode": _mode,
        "bigint": _bigint.name,
        "matrix": _matrix.name if _matrix is not None else "pure",
        "native_bigint_available": native.name if native else None,
        "native_matrix_available": matrix.name if matrix else None,
        "native_bigint_probe_failures": dict(_bigint_probe_failures),
    }


# ------------------------------------------------------------- dispatchers
def powm(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` (exponent must be non-negative)."""
    return _bigint.powm(base, exponent, modulus)


def multi_powm(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """``prod base_i ** exponent_i mod modulus``."""
    return _bigint.multi_powm(pairs, modulus)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a | n)`` for odd positive ``n``."""
    return _bigint.jacobi(a, n)


# Honour the environment at import time; an invalid value fails loudly here
# rather than silently running pure.
activate(resolve_mode(os.environ.get(_ENV_VAR)))
