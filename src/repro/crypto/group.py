"""A Schnorr group: the prime-order subgroup of ``Z_P^*`` for a safe prime P.

The paper's cryptographic module uses pairing-friendly curves (BN158, BN254,
BLS12-381, ...) via MIRACL.  Pairings are not available offline in pure
Python at a reasonable cost, so every pairing-based construction in this
reproduction is replaced by its discrete-log analogue in this group:

* BLS threshold signatures  -> threshold "group signatures" ``H(m)^s`` with
  Chaum-Pedersen share-correctness proofs,
* the threshold common coin -> Cachin-Kursawe-Shoup DDH coin ``H(tag)^s``,
* threshold encryption      -> labelled threshold ElGamal.

These substitutions preserve exactly the properties consensus relies on
(shares combine iff at least ``t+1`` are valid, invalid shares are detected,
outputs are unpredictable to fewer than ``t+1`` parties) while staying cheap
enough for simulation.  The *cost* of the original pairing operations is
modelled separately by :mod:`repro.crypto.curves`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Sequence

from repro.crypto import backend as crypto_backend
from repro.crypto.fastpath import (
    FixedBaseTable,
    derive_batch_randomizers,
    multi_exp,
)
from repro.crypto.field import PrimeField

# 256-bit safe prime P = 2q + 1 generated once with a fixed seed (see DESIGN.md).
_SAFE_PRIME_P = 105216956437749856470442369914846542332764088290024751311797079457000279170143
_SUBGROUP_ORDER_Q = 52608478218874928235221184957423271166382044145012375655898539728500139585071
_GENERATOR = 49  # 7^2 mod P, a generator of the order-q subgroup.


# Hot-path caches, keyed by the group parameters so arbitrary Group instances
# (including the toy groups used in tests) share them safely.  All cached
# functions are pure: the cache can only change speed, never results.
_FIXED_BASE_TABLES: dict[tuple[int, int, int], FixedBaseTable] = {}


def _fixed_base_table(p: int, q: int, g: int) -> FixedBaseTable:
    key = (p, q, g)
    table = _FIXED_BASE_TABLES.get(key)
    if table is None:
        table = FixedBaseTable(g, p, q)
        _FIXED_BASE_TABLES[key] = table
    return table


@lru_cache(maxsize=16384)
def _is_member_cached(p: int, q: int, a: int) -> bool:
    if not 1 <= a < p:
        return False
    if p == 2 * q + 1:
        # Safe prime: the order-q subgroup is exactly the quadratic residues,
        # so a Jacobi symbol replaces the ~5x costlier pow(a, q, p) test.
        return crypto_backend.jacobi(a, p) == 1
    return crypto_backend.powm(a, q, p) == 1


def _hash_to_scalar(q: int, parts: tuple[bytes, ...]) -> int:
    """The one definition of scalar derivation shared by the cached and
    reference hash-to-group paths (see ``_challenge`` for the rationale)."""
    digest = hashlib.sha512(b"\x00".join(parts)).digest()
    return int.from_bytes(digest, "big") % q


@lru_cache(maxsize=8192)
def _hash_to_group_cached(p: int, q: int, g: int, parts: tuple[bytes, ...]) -> int:
    exponent = _hash_to_scalar(q, (b"h2g",) + parts)
    return _fixed_base_table(p, q, g).pow(exponent if exponent != 0 else 1)


@dataclass(frozen=True)
class Group:
    """A cyclic group of prime order ``q`` written multiplicatively.

    Elements are integers in ``Z_P^*`` belonging to the order-``q`` subgroup;
    exponents live in the scalar field ``F_q``.
    """

    p: int
    q: int
    g: int
    # byte widths of the canonical encodings, derived once: element_to_bytes
    # runs ~50x per combine and bit_length() on a 256-bit int is not free
    _element_size: int = dataclass_field(init=False, repr=False, compare=False)
    _scalar_size: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_element_size",
                           (self.p.bit_length() + 7) // 8)
        object.__setattr__(self, "_scalar_size",
                           (self.q.bit_length() + 7) // 8)

    @property
    def scalar_field(self) -> PrimeField:
        """The field of exponents ``F_q``."""
        return PrimeField(self.q)

    # ----------------------------------------------------------- group ops
    def exp(self, base: int, exponent: int) -> int:
        """Return ``base ** exponent mod P`` (via the active crypto backend).

        No call site says which bases are long-lived: the pure tier counts
        sightings and answers a recurring base from a fixed-base table (see
        :mod:`repro.crypto.backend.pure`), the native tiers are fast as is.
        """
        return crypto_backend.powm(base, exponent % self.q, self.p)

    def mul(self, a: int, b: int) -> int:
        """Return the group product ``a * b mod P``."""
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Return the group inverse of ``a``."""
        return pow(a, -1, self.p)

    def power_of_g(self, exponent: int) -> int:
        """Return ``g ** exponent`` via the fixed-base windowed table."""
        return _fixed_base_table(self.p, self.q, self.g).pow(exponent)

    def power_of_g_reference(self, exponent: int) -> int:
        """Uncached/naive ``g ** exponent`` (the seed implementation).

        Builtin ``pow``, not :meth:`exp`: a reference must not run through
        the recurring-base tables it is compared against.
        """
        return pow(self.g, exponent % self.q, self.p)

    def is_member(self, a: int) -> bool:
        """True if ``a`` is a member of the order-``q`` subgroup.

        Memoised; for safe primes the test is a Jacobi symbol rather than a
        full exponentiation (identical results, ~5x faster).
        """
        return _is_member_cached(self.p, self.q, a)

    def is_member_reference(self, a: int) -> bool:
        """Uncached membership test ``a^q == 1 mod p`` (the seed implementation)."""
        if not 1 <= a < self.p:
            return False
        return pow(a, self.q, self.p) == 1

    # --------------------------------------------------------------- hashing
    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings to an exponent in ``F_q``."""
        return _hash_to_scalar(self.q, parts)

    def hash_to_group(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings to a group element.

        We hash to a scalar ``e`` and return ``g ** e`` -- the discrete log of
        the result is unknown to nobody in this simulation-oriented setting,
        which is acceptable because unforgeability against computationally
        bounded adversaries is not what the consensus experiments exercise.
        """
        return _hash_to_group_cached(self.p, self.q, self.g, parts)

    def hash_to_group_reference(self, *parts: bytes) -> int:
        """Uncached hash-to-group (the seed implementation)."""
        exponent = self.hash_to_scalar(b"h2g", *parts)
        # Avoid the identity element, which would break share verification.
        return self.power_of_g_reference(exponent if exponent != 0 else 1)

    def random_scalar(self, rng) -> int:
        """Uniformly random non-zero exponent."""
        value = rng.randrange(1, self.q)
        return value

    def element_to_bytes(self, a: int) -> bytes:
        """Canonical byte encoding of a group element (32 bytes + sign pad)."""
        return a.to_bytes(self._element_size, "big")

    def scalar_to_bytes(self, s: int) -> bytes:
        """Canonical byte encoding of a scalar."""
        return (s % self.q).to_bytes(self._scalar_size, "big")


DEFAULT_GROUP = Group(p=_SAFE_PRIME_P, q=_SUBGROUP_ORDER_Q, g=_GENERATOR)


# ------------------------------------------------------------- provenance
# A signature or share minted in this process is valid by construction for
# the exact statement its maker signed, so its verifier need not recompute
# what the maker just computed.  The maker records that statement on the
# artefact (``mint``); ``VerifyKey.verify`` and the ``verify_share`` methods
# answer ``True`` when the stamp equals what they are asked to check, and
# run the memoised verifier otherwise.  Soundness rests on four rules (see
# PERFORMANCE.md, "Verdicts by construction"):
#
# 1. Only ``SigningKey.sign`` and the three scheme handles' share methods
#    stamp.  ``prove_dlog_equality`` proves whatever statement it is handed,
#    true or not, so it never does.
# 2. A handle stamps only if its private share matches the dealer-published
#    verify key (``holds_published_share``).
# 3. The stamp is an ``init=False, compare=False, repr=False`` field of the
#    frozen dataclasses (``Stamped``): ``dataclasses.replace`` and a
#    field-by-field rebuild drop it; equality, hashing and every
#    repr-derived digest ignore it.
# 4. The stamp is process-local: ``Stamped.__reduce__`` rebuilds a pickled
#    (or ``copy``-ed) artefact from its public fields alone.
@dataclass(frozen=True)
class Stamped:
    """Base of the frozen artefacts that can carry their maker's stamp."""

    # rule 3: not an init field, invisible to ``==``, ``hash`` and ``repr``
    _minted_for: "tuple | None" = dataclass_field(
        default=None, init=False, compare=False, repr=False)

    def __reduce__(self):
        # rule 4: a pickled or ``copy``-ed artefact is its init fields only
        return type(self), tuple(
            getattr(self, field.name)
            for field in dataclasses.fields(self) if field.init)


def mint(artefact, *minted_for):
    """Stamp a freshly built frozen artefact with the statement it proves."""
    object.__setattr__(artefact, "_minted_for", minted_for)
    return artefact


def unstamped(artefact):
    """An equal copy that must be verified the long way.

    For tests and micro-benchmarks that sign and then verify in one process:
    without it they would measure a tuple comparison.
    """
    return dataclasses.replace(artefact)


def holds_published_share(group: "Group", private_share,
                          share_verify_keys: Sequence[int]) -> bool:
    """True if ``g^secret`` is the verify key the dealer published for the
    private share's index (rule 2: only such a handle may stamp)."""
    index = private_share.index
    # the range test is load-bearing: index 0 would read the *last* key
    return (1 <= index <= len(share_verify_keys)
            and group.power_of_g(private_share.secret)
            == share_verify_keys[index - 1])


def _all_ints(*values) -> bool:
    return all(isinstance(value, int) for value in values)


@dataclass(frozen=True)
class ChaumPedersenProof:
    """NIZK proof that ``log_g(v) == log_h(u)`` (discrete-log equality).

    Used to prove that a threshold signature / coin / decryption share was
    computed with the prover's correct key share, without revealing it.
    """

    commitment_g: int
    commitment_h: int
    response: int

    def size_bytes(self) -> int:
        """Wire size of the proof (two group elements + one scalar)."""
        return 3 * 32


def _challenge(group: Group, context: bytes, base_h: int, value_g: int,
               value_h: int, commitment_g: int, commitment_h: int) -> int:
    """The Fiat-Shamir challenge for a Chaum-Pedersen transcript.

    The single definition shared by the prover, both verifiers and the batch
    verifier -- if the transcript format ever changes, it changes everywhere
    at once (a silent mismatch would push every combine onto the per-share
    fallback path and quietly lose the batching speedup).
    """
    return group.hash_to_scalar(
        b"chaum-pedersen", context,
        group.element_to_bytes(base_h),
        group.element_to_bytes(value_g),
        group.element_to_bytes(value_h),
        group.element_to_bytes(commitment_g),
        group.element_to_bytes(commitment_h),
    )


def prove_dlog_equality(group: Group, secret: int, base_h: int,
                        value_g: int, value_h: int, rng,
                        context: bytes = b"") -> ChaumPedersenProof:
    """Produce a Chaum-Pedersen proof for ``value_g = g^secret``, ``value_h = base_h^secret``."""
    nonce = group.random_scalar(rng)
    commitment_g = group.power_of_g(nonce)
    commitment_h = group.exp(base_h, nonce)
    challenge = _challenge(group, context, base_h, value_g, value_h,
                           commitment_g, commitment_h)
    response = (nonce + challenge * secret) % group.q
    return ChaumPedersenProof(commitment_g=commitment_g,
                              commitment_h=commitment_h,
                              response=response)


def verify_dlog_equality(group: Group, proof: ChaumPedersenProof, base_h: int,
                         value_g: int, value_h: int,
                         context: bytes = b"") -> bool:
    """Verify a Chaum-Pedersen discrete-log-equality proof.

    Memoised process-wide: verification is a pure function of the transcript,
    and in a simulated broadcast domain every receiver verifies the *same*
    share, so the n-fold re-verification across simulated nodes collapses to
    one real computation -- the long road for a verdict nobody in this
    process has established yet.  (A share still carrying its maker's stamp
    never gets here: the scheme's ``verify_share`` answers from the stamp,
    see "provenance" above.)  The per-node CPU cost model is charged by
    :class:`repro.crypto.timing.CryptoSuite` before this function runs, so
    simulated virtual time is unaffected -- only wall clock.

    Wrong-typed input (a peer-controlled ``proof`` that is no proof, a
    non-integer element) is an invalid proof, not an exception.
    """
    if not (isinstance(proof, ChaumPedersenProof)
            and _all_ints(proof.commitment_g, proof.commitment_h,
                          proof.response, base_h, value_g, value_h)):
        return False
    return _verify_dlog_equality_cached(
        group.p, group.q, group.g, proof.commitment_g, proof.commitment_h,
        proof.response, base_h, value_g, value_h, context)


@lru_cache(maxsize=32768)
def _verify_dlog_equality_cached(p: int, q: int, g: int, commitment_g: int,
                                 commitment_h: int, response: int, base_h: int,
                                 value_g: int, value_h: int,
                                 context: bytes) -> bool:
    group = Group(p=p, q=q, g=g)
    proof = ChaumPedersenProof(commitment_g=commitment_g,
                               commitment_h=commitment_h, response=response)
    if not (group.is_member(value_g) and group.is_member(value_h)):
        return False
    challenge = _challenge(group, context, base_h, value_g, value_h,
                           proof.commitment_g, proof.commitment_h)
    lhs_g = group.power_of_g(proof.response)
    rhs_g = group.mul(proof.commitment_g, group.exp(value_g, challenge))
    if lhs_g != rhs_g:
        return False
    lhs_h = group.exp(base_h, proof.response)
    rhs_h = group.mul(proof.commitment_h, group.exp(value_h, challenge))
    return lhs_h == rhs_h


def verify_dlog_equality_reference(group: Group, proof: ChaumPedersenProof,
                                   base_h: int, value_g: int, value_h: int,
                                   context: bytes = b"") -> bool:
    """Seed-equivalent verifier that bypasses every cache and fast path.

    Used by the bit-identity property tests and the hot-path micro-benchmarks
    as the "before" implementation: naive membership tests and four full
    ``pow()`` calls per proof.
    """
    if not (group.is_member_reference(value_g)
            and group.is_member_reference(value_h)):
        return False
    challenge = _challenge(group, context, base_h, value_g, value_h,
                           proof.commitment_g, proof.commitment_h)
    p, q = group.p, group.q
    lhs_g = group.power_of_g_reference(proof.response)
    rhs_g = group.mul(proof.commitment_g, pow(value_g, challenge % q, p))
    if lhs_g != rhs_g:
        return False
    lhs_h = pow(base_h, proof.response % q, p)
    rhs_h = group.mul(proof.commitment_h, pow(value_h, challenge % q, p))
    return lhs_h == rhs_h


#: FIFO memos for batched native membership tests, one flat dict per group
#: modulus so the hot lookups hash a bare element instead of a ``(p, a)``
#: tuple.  Semantics mirror ``_is_member_cached`` (results are identical;
#: only call batching differs).
_NATIVE_MEMBER_MEMOS: dict[int, dict[int, bool]] = {}
_NATIVE_MEMBER_MEMO_MAX = 16384


def _batch_members_ok(group: Group, elements: Sequence[int]) -> bool:
    """Subgroup membership for many elements at once.

    On the pure path this is the memoised per-element Jacobi test.  With a
    native big-integer tier active (and a safe-prime group) the uncached
    elements go through one batched ``jacobi_many`` foreign call, which
    turns ~4 Python-level Jacobi evaluations per statement into a single
    libgmp sweep.
    """
    p, q = group.p, group.q
    if not (crypto_backend.has_native_bigint() and p == 2 * q + 1):
        return all(_is_member_cached(p, q, a) for a in elements)
    memo = _NATIVE_MEMBER_MEMOS.get(p)
    if memo is None:
        memo = _NATIVE_MEMBER_MEMOS[p] = {}
    # Verdicts are tracked locally rather than re-read from the memo at the
    # end: the eviction below may push out entries cached by *earlier* calls
    # that this batch still references (regression: KeyError once the memo
    # wrapped around its size bound mid-batch).
    lookup = memo.get
    verdict = True
    fresh: list[int] = []
    seen_fresh: set[int] = set()
    for element in elements:
        known = lookup(element)
        if known is None:
            if element not in seen_fresh:
                seen_fresh.add(element)
                fresh.append(element)
        elif not known:
            verdict = False
    if fresh:
        # only in-range elements ever enter the memo, so anything cached is
        # already validated and the range check runs on the misses alone
        for element in fresh:
            if not 1 <= element < p:
                return False
        symbols = crypto_backend.jacobi_many(fresh, p)
        # Amortised eviction: rebuild with the newest half instead of
        # popping entries one by one (``next(iter(dict))`` walks the dead
        # prefix left by earlier pops, turning per-call eviction quadratic
        # at steady state).  Long-lived keys -- verify keys, hashed message
        # points -- sit in the newest half or get re-probed in one batched
        # jacobi call, so the occasional rebuild costs ~nothing.
        if len(memo) + len(fresh) > _NATIVE_MEMBER_MEMO_MAX:
            survivors = list(memo.items())[-(_NATIVE_MEMBER_MEMO_MAX // 2):]
            memo.clear()
            memo.update(survivors)
        for element, symbol in zip(fresh, symbols):
            member = symbol == 1
            memo[element] = member
            if not member:
                verdict = False
    return verdict


def batch_verify_dlog_equality(group: Group, base_h: int,
                               statements: Sequence[tuple[ChaumPedersenProof, int, int]],
                               context: bytes = b"") -> bool:
    """Batch-verify Chaum-Pedersen proofs that share the secondary base.

    ``statements`` is a sequence of ``(proof, value_g, value_h)`` claiming
    ``value_g = g^s`` and ``value_h = base_h^s``.  The check folds all
    ``2n`` proof equations into one product via independent small random
    exponents (derived deterministically from the transcripts, so runs stay
    reproducible): with a 64-bit ``r_i`` weighting statement ``i``'s g-side
    equation and an independent 64-bit ``s_i`` weighting its h-side,

        prod a_i^{r_i} * b_i^{s_i} * v_i^{r_i c_i} * u_i^{s_i c_i}
            * h^{-sum s_i z_i}  ==  g^{sum r_i z_i}

    A batch containing any invalid proof passes with probability at most
    ``2^-63``; callers that need the culprit fall back to per-share
    verification (see ``ThresholdSigPublicKey.verify_shares``).

    Subgroup membership of every ``value_g`` / ``value_h`` *and of both
    proof commitments* is checked exactly (memoised Jacobi test) before
    batching, matching the per-proof verifier's semantics.  The commitment
    checks are load-bearing for soundness, not just hygiene: without them a
    proof with both commitments negated (order-2q elements in the safe-prime
    group) would satisfy the combined product -- the two (-1) components
    cancel for any odd randomizer -- even though the per-share verifier
    rejects it.  With every element confined to the order-q subgroup the
    standard small-exponent batching bound applies.  A per-share-valid proof
    can only trip these checks if ``base_h`` itself is outside the subgroup
    (adversarially crafted ciphertext ephemeral); the batch then fails and
    the caller's per-share fallback still yields the exact seed result.
    """
    if not statements:
        return True
    q = group.q
    if not isinstance(base_h, int):
        return False
    elements: list[int] = []
    for proof, value_g, value_h in statements:
        # a malformed statement fails the batch; the caller's per-share
        # fallback then names the culprit
        if not (isinstance(proof, ChaumPedersenProof)
                and _all_ints(value_g, value_h, proof.commitment_g,
                              proof.commitment_h, proof.response)):
            return False
        elements.extend((value_g, value_h, proof.commitment_g,
                         proof.commitment_h))
    if not _batch_members_ok(group, elements):
        return False
    transcripts: list[bytes] = [context, group.element_to_bytes(base_h)]
    challenges = []
    for proof, value_g, value_h in statements:
        challenge = _challenge(group, context, base_h, value_g, value_h,
                               proof.commitment_g, proof.commitment_h)
        challenges.append(challenge)
        transcripts.extend((
            group.element_to_bytes(value_g),
            group.element_to_bytes(value_h),
            group.element_to_bytes(proof.commitment_g),
            group.element_to_bytes(proof.commitment_h),
            group.scalar_to_bytes(proof.response),
        ))
    randomizers = derive_batch_randomizers(transcripts, 2 * len(statements))
    p = group.p
    native = crypto_backend.has_native_bigint()
    if native:
        # Native restructuring of the same product: every per-statement
        # term is first raised to its 64-bit randomizer weight only --
        # a_i^{r_i}, b_i^{s_i}, v_i^{r_i}, u_i^{s_i} in one batched
        # foreign call of *short*-exponent powms -- and the full-width
        # challenge is applied once per statement via
        # ``v^{r c} u^{s c} == (v^r u^s)^c``.  That swaps 2n full-width
        # exponentiations for n, which dominates the verify cost.
        response_sum_g = 0
        response_sum_h = 0
        weighted: list[tuple[int, int]] = []
        for index, (proof, value_g, value_h) in enumerate(statements):
            weight_g = randomizers[2 * index]
            weight_h = randomizers[2 * index + 1]
            response_sum_g = (response_sum_g + weight_g * proof.response) % q
            response_sum_h = (response_sum_h + weight_h * proof.response) % q
            weighted.append((proof.commitment_g, weight_g))
            weighted.append((proof.commitment_h, weight_h))
            weighted.append((value_g, weight_g))
            weighted.append((value_h, weight_h))
        powers = crypto_backend.powm_many(weighted, p)
        prefold = 1
        pairs = []
        for index, challenge in enumerate(challenges):
            a_r, b_s, v_r, u_s = powers[4 * index:4 * index + 4]
            prefold = prefold * a_r % p * b_s % p
            pairs.append((v_r * u_s % p, challenge))
        # Negated exponents fold the expected values into the product too
        # (x^-e == x^(q - e) for subgroup members), so the whole check is
        # one multi-exponentiation compared against 1.
        pairs.append((base_h, (q - response_sum_h) % q))
        pairs.append((group.g, (q - response_sum_g) % q))
        pairs.append((prefold, 1))
        return crypto_backend.multi_powm(pairs, p) == 1
    else:
        pairs = []
        verify_key_product = 1
        response_sum_g = 0
        response_sum_h = 0
        for index, ((proof, value_g, value_h), challenge) in enumerate(
                zip(statements, challenges)):
            weight_g = randomizers[2 * index]
            weight_h = randomizers[2 * index + 1]
            response_sum_g = (response_sum_g + weight_g * proof.response) % q
            response_sum_h = (response_sum_h + weight_h * proof.response) % q
            pairs.append((proof.commitment_g, weight_g))
            pairs.append((proof.commitment_h, weight_h))
            # value_g is a long-lived public verify key: a recurring base,
            # which ``group.exp`` answers from a fixed-base table, so it is
            # kept out of the shared multi-exp.
            verify_key_product = verify_key_product * group.exp(
                value_g, weight_g * challenge) % p
            pairs.append((value_h, weight_h * challenge % q))
        # Negated exponent folded into the one product: x^-e == x^(q - e)
        # for subgroup members (g's term stays on the cheap fixed-base
        # table as the expected value).
        pairs.append((base_h, (q - response_sum_h) % q))
        return multi_exp(pairs, p) * verify_key_product % p == \
            group.power_of_g(response_sum_g)


def select_shares_batched(group: Group, base_h: int, shares, context: bytes,
                          structural_ok, statement_of, verify_one) -> dict:
    """Deduplicate signer-keyed shares with batch verification.

    The shared happy/fallback skeleton of every threshold combiner
    (signatures, coins, decryption): deduplicate the structurally plausible
    shares by signer, batch-verify their proofs in one shot, and -- if the
    batch fails because any share is corrupt -- replay the seed's
    verify-as-you-deduplicate loop so the selected share set is identical
    to the unbatched implementation in every case.

    ``structural_ok`` filters candidates (type/signer-range/tag checks that
    the per-share verifier would fail cheaply), ``statement_of`` maps a
    share to its ``(proof, value_g, value_h)`` batch statement, and
    ``verify_one`` is the exact per-share verifier used on fallback.
    Returns the ``{signer: share}`` selection.
    """
    distinct: dict = {}
    for share in shares:
        if structural_ok(share):
            distinct.setdefault(share.signer, share)
    statements = [statement_of(share) for share in distinct.values()]
    if batch_verify_dlog_equality(group, base_h, statements, context=context):
        return distinct
    distinct = {}
    for share in shares:
        if verify_one(share):
            distinct.setdefault(share.signer, share)
    return distinct
