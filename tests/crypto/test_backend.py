"""Tests for the pluggable crypto/erasure acceleration backend.

Two properties are load-bearing and pinned here:

* **Opt-in**: the pure path is the default; native tiers engage only via
  ``REPRO_CRYPTO_BACKEND`` (or :func:`repro.crypto.backend.use`).
* **Bit identity**: switching backends can never change a single result --
  not a group element, not a decoded byte, not a digest.  The property
  tests compare pure and native answers over randomized grids, and the
  end-to-end tests pin whole threshold-scheme transcripts across modes.

When no native tier probes successfully (no gmpy2, no libgmp, no numpy)
the cross-checks degenerate to pure-vs-pure and still pass.
"""

import hashlib
import os
import random
import shutil
import stat
import sys
import tempfile
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend, fastpath
from repro.crypto.backend import BackendUnavailableError, gmp
from repro.crypto.backend.gmp import load_gmp_bigint
from repro.crypto.backend.gmpy2_backend import load_gmpy2_bigint
from repro.crypto.backend.pure import PureBigint
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.threshold_sig import deal_threshold_sig

P = DEFAULT_GROUP.p
PURE = PureBigint()
#: every big-integer tier ``repro.crypto.backend`` can select, by ``name``
TIER_LOADERS = {"pure": PureBigint, "gmpy2": load_gmpy2_bigint,
                "gmp-shim": load_gmp_bigint}
#: reasons that describe the tier's own code, not the machine it is on
BROKEN = ("AttributeError:", "TypeError:", "ValueError:", "self-check failed")


def load_or_skip(name: str):
    """The tier, or a skip carrying the probe's stated reason -- unless the
    reason is about the tier itself: then it is present but broken, and the
    test fails."""
    try:
        return TIER_LOADERS[name]()
    except BackendUnavailableError as why:
        if str(why).startswith(BROKEN):
            raise
        pytest.skip(f"{name}: {why}")


# --------------------------------------------------------------- mode probe
class TestModeSelection:
    def test_unset_env_means_pure(self):
        assert backend.resolve_mode(None) == "pure"
        assert backend.resolve_mode("") == "pure"

    def test_valid_modes(self):
        assert backend.resolve_mode("pure") == "pure"
        assert backend.resolve_mode("auto") == "auto"
        assert backend.resolve_mode("NATIVE") == "native"
        assert backend.resolve_mode(" native ") == "native"

    def test_invalid_mode_fails_loudly(self):
        with pytest.raises(BackendUnavailableError, match="not a valid"):
            backend.resolve_mode("fast")

    def test_use_restores_previous_selection(self):
        before = backend.backend_info()
        with backend.use("auto") as info:
            assert info["mode"] == "auto"
        assert backend.backend_info() == before

    def test_pure_mode_never_uses_native(self):
        with backend.use("pure"):
            assert not backend.has_native_bigint()
            assert backend.matrix_engine() is None

    def test_auto_mode_survives_missing_native(self, monkeypatch):
        monkeypatch.setattr(backend, "_native_bigint", None)
        monkeypatch.setattr(backend, "_native_matrix", None)
        with backend.use("auto"):
            assert not backend.has_native_bigint()
            assert backend.powm(3, 4, 7) == pow(3, 4, 7)

    def test_native_mode_requires_a_bigint_tier(self, monkeypatch):
        monkeypatch.setattr(backend, "_native_bigint", None)
        monkeypatch.setattr(backend, "_bigint_probe_failures", {
            "gmpy2": "ImportError: No module named 'gmpy2'",
            "gmp-shim": "no C compiler"})
        # the error carries the probe outcome, tier by tier
        with pytest.raises(BackendUnavailableError, match=(
                "native.*gmpy2: ImportError: No module named 'gmpy2'; "
                "gmp-shim: no C compiler")):
            backend.activate("native")
        # the failed activation must not leave a half-selected backend
        backend.activate("pure")
        assert backend.current_mode() == "pure"

    def test_backend_info_reports_probe_results(self):
        info = backend.backend_info()
        assert set(info) == {"mode", "bigint", "matrix",
                             "native_bigint_available",
                             "native_matrix_available",
                             "native_bigint_probe_failures"}
        assert info["mode"] in ("pure", "auto", "native")
        # every tier the probe tried either loaded or left its reason
        failures = info["native_bigint_probe_failures"]
        assert set(failures) <= set(TIER_LOADERS)
        assert all(isinstance(why, str) and why for why in failures.values())
        if info["native_bigint_available"] is None:
            assert set(failures) == set(TIER_LOADERS) - {"pure"}
        else:
            assert info["native_bigint_available"] in TIER_LOADERS
            assert info["native_bigint_available"] not in failures


# ------------------------------------------------------------ no dead tier
class TestNoDeadTier:
    @pytest.mark.parametrize("name", TIER_LOADERS)
    def test_tier_loads_and_agrees_or_says_why_not(self, name):
        """A tier that is installed but cannot be instantiated, or answers
        wrongly, fails here instead of reading as "unavailable"."""
        tier = load_or_skip(name)
        assert tier.name == name
        rnd = random.Random(5)
        pairs = [(rnd.randrange(2 * P), rnd.randrange(DEFAULT_GROUP.q))
                 for _ in range(12)]
        for base, exponent in pairs:
            assert tier.powm(base, exponent, P) == pow(base, exponent, P)
            assert tier.jacobi(base, P) == fastpath.jacobi(base, P)
        assert tier.multi_powm(pairs, P) == fastpath.multi_exp(pairs, P)

    def test_gmpy2_loader_reports_import_and_self_check(self, monkeypatch):
        # a stand-in with gmpy2's three entry points on Python integers
        stand_in = types.SimpleNamespace(mpz=int, powmod=pow,
                                         jacobi=fastpath.jacobi)
        monkeypatch.setitem(sys.modules, "gmpy2", stand_in)
        tier = load_gmpy2_bigint()
        pairs = [(3, 5), (P - 2, DEFAULT_GROUP.q - 1)]
        assert tier.multi_powm(pairs, P) == fastpath.multi_exp(pairs, P)
        stand_in.powmod = lambda base, exponent, modulus: 0
        with pytest.raises(BackendUnavailableError, match="self-check failed"):
            load_gmpy2_bigint()
        monkeypatch.setitem(sys.modules, "gmpy2", None)
        with pytest.raises(BackendUnavailableError, match="^ImportError: "):
            load_gmpy2_bigint()


# ------------------------------------------------- shim build directory
class TestShimDirectoryIsPrivate:
    """The shim is cached under the shared temp dir at a path anyone can
    compute, so nothing is loaded from there unless it is ours alone."""

    @pytest.fixture()
    def libdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        libdir = gmp._shim_directory()
        assert os.path.dirname(libdir) == str(tmp_path)
        return libdir

    @staticmethod
    def _plant_library(libdir) -> str:
        libpath = os.path.join(libdir, gmp._SHIM_LIBNAME)
        with open(libpath, "wb") as handle:
            handle.write(b"whatever the first comer put here")
        return libpath

    def test_fresh_directory_is_created_0700(self, libdir, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        with pytest.raises(BackendUnavailableError, match="^no C compiler$"):
            load_gmp_bigint()
        assert stat.S_IMODE(os.stat(libdir).st_mode) == 0o700

    def test_fresh_build_is_private_whatever_the_umask(self, libdir):
        previous = os.umask(0o002)
        try:
            load_or_skip("gmp-shim")  # compiles into the patched temp dir
        finally:
            os.umask(previous)
        libpath = os.path.join(libdir, gmp._SHIM_LIBNAME)
        assert not stat.S_IMODE(os.stat(libpath).st_mode) & 0o022
        # the next process finds it acceptable and loads it
        assert load_gmp_bigint().powm(2, 10, 1000) == 24

    def test_world_writable_directory_is_refused(self, libdir):
        os.mkdir(libdir)
        os.chmod(libdir, 0o777)
        self._plant_library(libdir)
        with pytest.raises(BackendUnavailableError,
                           match="^directory not private"):
            load_gmp_bigint()

    def test_world_writable_library_is_refused(self, libdir):
        os.mkdir(libdir, 0o700)
        os.chmod(self._plant_library(libdir), 0o666)
        with pytest.raises(BackendUnavailableError,
                           match="^directory not private"):
            load_gmp_bigint()

    def test_symlinked_directory_is_refused(self, libdir, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir(mode=0o700)
        self._plant_library(str(elsewhere))
        os.symlink(str(elsewhere), libdir)
        with pytest.raises(BackendUnavailableError,
                           match="^directory not private"):
            load_gmp_bigint()


# --------------------------------------------------------- bigint identity
def _native_bigint_or_none():
    return backend._probe_native_bigint()


class TestBigintBitIdentity:
    @given(base=st.integers(min_value=0, max_value=P * 2),
           exponent=st.integers(min_value=0, max_value=DEFAULT_GROUP.q),
           modulus=st.integers(min_value=1, max_value=P))
    @settings(max_examples=60, deadline=None)
    def test_powm_matches_pure(self, base, exponent, modulus):
        # builtin pow is the reference
        native = _native_bigint_or_none() or PURE
        assert native.powm(base, exponent, modulus) == \
            pow(base, exponent, modulus)

    def test_powm_edge_cases(self):
        native = _native_bigint_or_none() or PURE
        for base, exponent, modulus in [(0, 0, 7), (0, 5, 7), (5, 0, 7),
                                        (7, 3, 1), (P - 1, DEFAULT_GROUP.q, P),
                                        (P + 3, 2, P)]:
            assert native.powm(base, exponent, modulus) == \
                pow(base, exponent, modulus)

    def test_negative_exponent_rejected_on_both_paths(self):
        native = _native_bigint_or_none() or PURE
        with pytest.raises(ValueError):
            PURE.powm(3, -1, 7)
        with pytest.raises(ValueError):
            native.powm(3, -1, 7)

    @given(count=st.integers(min_value=0, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_multi_powm_matches_pure(self, count, seed):
        rnd = random.Random(seed)
        pairs = [(rnd.randrange(P), rnd.randrange(DEFAULT_GROUP.q))
                 for _ in range(count)]
        native = _native_bigint_or_none() or PURE
        assert native.multi_powm(pairs, P) == PURE.multi_powm(pairs, P)

    def test_multi_powm_empty_is_identity(self):
        native = _native_bigint_or_none() or PURE
        assert PURE.multi_powm([], P) == 1
        assert native.multi_powm([], P) == 1

    def test_multi_powm_negative_exponent_rejected(self):
        native = _native_bigint_or_none() or PURE
        with pytest.raises(ValueError):
            PURE.multi_powm([(3, -1)], P)
        with pytest.raises(ValueError):
            native.multi_powm([(3, -1)], P)

    @given(value=st.integers(min_value=-P, max_value=P * 2),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_jacobi_matches_pure(self, value, seed):
        native = _native_bigint_or_none() or PURE
        assert native.jacobi(value, P) == PURE.jacobi(value, P)

    def test_jacobi_even_modulus_rejected(self):
        native = _native_bigint_or_none() or PURE
        with pytest.raises(ValueError):
            PURE.jacobi(3, 8)
        with pytest.raises(ValueError):
            native.jacobi(3, 8)


# --------------------------------------------------------- matrix identity
def _matrix_or_none():
    return backend._probe_native_matrix()


class TestMatrixEngine:
    def test_matmul_matches_pure(self):
        engine = _matrix_or_none()
        if engine is None:
            pytest.skip("numpy unavailable")
        prime = 2**31 - 1
        rnd = random.Random(5)
        a = [[rnd.randrange(prime) for _ in range(6)] for _ in range(4)]
        b = [[rnd.randrange(prime) for _ in range(3)] for _ in range(6)]
        expected = [[sum(a[i][l] * b[l][j] for l in range(6)) % prime
                     for j in range(3)] for i in range(4)]
        got = engine.matmul_mod(engine.matrix(a), engine.matrix(b), prime)
        assert got.tolist() == expected

    def test_bounds_enforced(self):
        engine = _matrix_or_none()
        if engine is None:
            pytest.skip("numpy unavailable")
        from repro.crypto.backend.matrix import MAX_INNER_DIM
        with pytest.raises(ValueError):
            engine.matmul_mod(engine.matrix([[1]]), engine.matrix([[1]]),
                              2**31 + 2)
        wide = engine.matrix([[1] * (MAX_INNER_DIM + 1)])
        tall = engine.matrix([[1]] * (MAX_INNER_DIM + 1))
        with pytest.raises(ValueError):
            engine.matmul_mod(wide, tall, 2**31 - 1)


# ----------------------------------------------------- erasure bit identity
class TestErasureBitIdentity:
    @given(payload=st.binary(min_size=0, max_size=400),
           k=st.integers(min_value=1, max_value=12),
           extra=st.integers(min_value=0, max_value=8),
           systematic=st.booleans(),
           drop_seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_identical_across_modes(self, payload, k, extra,
                                                  systematic, drop_seed):
        from repro.components.erasure import decode_blocks, encode_blocks
        n = k + extra
        with backend.use("pure"):
            pure_blocks = encode_blocks(payload, k, n, systematic=systematic)
            subset = random.Random(drop_seed).sample(pure_blocks, k)
            pure_payload = decode_blocks(subset)
        with backend.use("auto"):
            auto_blocks = encode_blocks(payload, k, n, systematic=systematic)
            auto_payload = decode_blocks(
                [auto_blocks[block.index] for block in subset])
        assert [block.values for block in auto_blocks] == \
            [block.values for block in pure_blocks]
        assert pure_payload == auto_payload == payload


# ----------------------------------------------- threshold digest identity
class TestThresholdBitIdentity:
    def _transcript(self) -> bytes:
        """One full deal/sign/combine transcript, hashed."""
        rng = random.Random(99)
        schemes = deal_threshold_sig(7, 3, rng)
        message = b"backend-identity"
        shares = [scheme.sign_share(message, rng) for scheme in schemes[:5]]
        signature = schemes[0].combine(message, shares)
        hasher = hashlib.sha256()
        hasher.update(signature.value.to_bytes(40, "big"))
        for share in shares:
            hasher.update(share.value.to_bytes(40, "big"))
            hasher.update(share.proof.commitment_g.to_bytes(40, "big"))
            hasher.update(share.proof.commitment_h.to_bytes(40, "big"))
            hasher.update(share.proof.response.to_bytes(40, "big"))
        return hasher.digest()

    def test_transcript_digest_identical_across_modes(self):
        with backend.use("pure"):
            pure_digest = self._transcript()
        with backend.use("auto"):
            auto_digest = self._transcript()
        assert pure_digest == auto_digest

