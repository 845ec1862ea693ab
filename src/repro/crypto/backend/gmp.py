"""The native big-integer tier backed by the system libgmp.

``gmp-shim`` is a small C helper (``_gmp_shim.c``, shipped as package data)
compiled on demand with the system C compiler and loaded via ctypes.  One
foreign call performs a whole operation (an entire multi-exponentiation),
so the Python-side marshalling cost is one fixed-width ``int.to_bytes`` per
operand.

The tier validates arguments exactly like :mod:`repro.crypto.backend.pure`
and returns bit-identical results: GMP's ``mpz_powm``/``mpz_jacobi`` agree
with CPython's ``pow`` and the binary Jacobi algorithm on every input the
wrappers admit.

The compiled shim lives in a content-addressed directory under the system
temp dir (keyed by the source hash), so rebuilds only happen when the C
source changes and concurrent processes race benignly via ``os.replace``.
That directory is shared with every other user of the machine and its name
is a function of a public file, so it is created mode 0700 and nothing is
loaded from it unless directory and library are owned by this user and
writable by nobody else.  Every failure path (no compiler, no libgmp,
compile error, directory not private) raises
:class:`~repro.crypto.backend.BackendUnavailableError` with the reason and
the caller falls back to pure Python -- native acceleration is always
optional.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from typing import Sequence

from repro.crypto.backend import BackendUnavailableError

_SHIM_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "_gmp_shim.c")
_SHIM_LIBNAME = "librepro_gmp.so"


def _nbytes(value: int) -> int:
    return (value.bit_length() + 7) // 8 or 1


def _pack(values: Sequence[int], size: int) -> bytes:
    return b"".join([value.to_bytes(size, "big") for value in values])


class _ShimBigint:
    """GMP operations through the compiled ``_gmp_shim.c``."""

    name = "gmp-shim"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        buffer_t = ctypes.c_char_p
        lib.repro_powm_array.argtypes = [ctypes.c_int, ctypes.c_int, buffer_t,
                                         buffer_t, buffer_t, ctypes.c_char_p]
        lib.repro_powm_array.restype = None
        lib.repro_multi_powm.argtypes = [ctypes.c_int, ctypes.c_int, buffer_t,
                                         buffer_t, buffer_t, ctypes.c_char_p]
        lib.repro_multi_powm.restype = None
        lib.repro_jacobi_array.argtypes = [ctypes.c_int, ctypes.c_int,
                                           buffer_t, ctypes.c_char_p]
        lib.repro_jacobi_array.restype = None

    def powm(self, base: int, exponent: int, modulus: int) -> int:
        if exponent < 0:
            raise ValueError("powm requires a non-negative exponent")
        if modulus <= 0:
            # Defer the error/semantics for degenerate moduli to CPython.
            return pow(base, exponent, modulus)
        base %= modulus
        size = max(_nbytes(modulus), _nbytes(base), _nbytes(exponent))
        out = ctypes.create_string_buffer(size)
        self._lib.repro_powm_array(
            1, size, base.to_bytes(size, "big"),
            exponent.to_bytes(size, "big"), modulus.to_bytes(size, "big"),
            out)
        return int.from_bytes(out.raw, "big")

    def multi_powm(self, pairs: Sequence[tuple[int, int]],
                   modulus: int) -> int:
        if modulus <= 0:
            raise ValueError("multi_powm requires a positive modulus")
        if not pairs:
            return 1 % modulus
        bases = []
        exponents = []
        bits = 0
        for base, exponent in pairs:
            if exponent < 0:
                raise ValueError("multi_exp requires non-negative exponents")
            bases.append(base % modulus)
            exponents.append(exponent)
            exponent_bits = exponent.bit_length()
            if exponent_bits > bits:
                bits = exponent_bits
        size = max(_nbytes(modulus), (bits + 7) // 8)
        out = ctypes.create_string_buffer(size)
        self._lib.repro_multi_powm(
            len(pairs), size, _pack(bases, size), _pack(exponents, size),
            modulus.to_bytes(size, "big"), out)
        return int.from_bytes(out.raw, "big")

    def jacobi(self, a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValueError("jacobi symbol requires odd positive n")
        size = _nbytes(n)
        out = ctypes.create_string_buffer(1)
        self._lib.repro_jacobi_array(
            1, size, (a % n).to_bytes(size, "big"), n.to_bytes(size, "big"),
            out)
        return int.from_bytes(out.raw, "big", signed=True)


def _require_private(path: str, is_kind) -> None:
    """Refuse a cache entry that another user could have planted or can
    still replace: whoever creates the directory first would otherwise choose
    the code this process loads.  ``lstat``, so a symlink is never private."""
    if not hasattr(os, "getuid"):
        raise BackendUnavailableError(
            "directory not private: no POSIX ownership to check here")
    status = os.lstat(path)
    if not (is_kind(status.st_mode) and status.st_uid == os.getuid()
            and not status.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        raise BackendUnavailableError(
            f"directory not private: {path} must be owned by uid "
            f"{os.getuid()} and writable by nobody else")


def _shim_directory() -> str:
    """The build directory: one per revision of the C source."""
    with open(_SHIM_SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"repro-gmp-{digest}")


def _shim_library_path() -> str:
    """Compile (once, content-addressed) and return the shim path."""
    libdir = _shim_directory()
    libpath = os.path.join(libdir, _SHIM_LIBNAME)
    try:
        os.mkdir(libdir, 0o700)
    except FileExistsError:
        pass
    _require_private(libdir, stat.S_ISDIR)
    if os.path.lexists(libpath):
        _require_private(libpath, stat.S_ISREG)
        return libpath
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise BackendUnavailableError("no C compiler")
    staging = os.path.join(libdir, f".{_SHIM_LIBNAME}.{os.getpid()}")
    result = subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-o", staging,
         _SHIM_SOURCE, "-lgmp"],
        capture_output=True, timeout=120)
    if result.returncode != 0 or not os.path.exists(staging):
        last_line = result.stderr.decode(errors="replace").strip() \
            .rpartition("\n")[2]
        raise BackendUnavailableError(f"compile failed: {last_line}")
    # whatever the umask, the next process must find the library private
    os.chmod(staging, 0o700)
    os.replace(staging, libpath)
    return libpath


def load_gmp_bigint() -> _ShimBigint:
    """The ``gmp-shim`` tier, or :class:`BackendUnavailableError` saying why
    it did not load."""
    try:
        shim = _ShimBigint(ctypes.CDLL(_shim_library_path()))
    except (OSError, AttributeError, subprocess.SubprocessError) as error:
        raise BackendUnavailableError(
            f"{type(error).__name__}: {error}") from error
    # One self-check call: a broken toolchain should demote the tier at
    # probe time, not corrupt crypto results later.
    if shim.powm(7, 5, 11) != pow(7, 5, 11):
        raise BackendUnavailableError("self-check failed")
    return shim
