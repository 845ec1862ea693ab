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

import copyreg
import dataclasses
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Optional, Sequence

from repro.crypto import backend as crypto_backend
from repro.crypto.fastpath import FixedBaseTable
from repro.crypto.field import PrimeField, lagrange_ratios_at_zero

# 256-bit safe prime P = 2q + 1, generated once with a fixed seed.
_SAFE_PRIME_P = 105216956437749856470442369914846542332764088290024751311797079457000279170143
_SUBGROUP_ORDER_Q = 52608478218874928235221184957423271166382044145012375655898539728500139585071
_GENERATOR = 49  # 7^2 mod P, a generator of the order-q subgroup.

#: Bound on the known-log memo of one group, and on its combined powers,
#: within one run (both are run-scoped, see below): ~145 bytes an entry on
#: the 256-bit group, so ~0.6 MB at the bound, and about nine times the most
#: elements any ledger workload learns in a pass (see PERFORMANCE.md, "Known
#: logs").
KNOWN_LOGS_MAX = 4096


# Hot-path caches, keyed by the group parameters so arbitrary Group instances
# (including the toy groups used in tests) share them safely.  All cached
# functions are pure: the cache can only change speed, never results.
#
# Each memo has a scope (PERFORMANCE.md, "Memo scopes").  A memo whose
# entries come from one run's keys or randomness -- known logs, combined
# powers, membership and proof verdicts -- is *run-scoped*: no later run at
# a fresh seed can hit it, so ``forget_run`` empties it when the run's
# deployment closes.  A memo keyed by public parameters any run can reuse
# (hash points, Lagrange weights, fixed-base tables) is process-scoped.
_RUN_SCOPED: list = []


def run_scoped(maxsize: int):
    """``lru_cache(maxsize=maxsize)`` whose entries :func:`forget_run`
    drops."""
    def decorate(function):
        cached = lru_cache(maxsize=maxsize)(function)
        _RUN_SCOPED.append(cached)
        return cached
    return decorate


def forget_run() -> None:
    """Empty every run-scoped memo: the :func:`run_scoped` caches and each
    generator's known logs and combined powers, but not its fixed-base
    table.  Called by ``Deployment.close()`` once a run's result is built."""
    for cached in _RUN_SCOPED:
        cached.cache_clear()
    for generator in _GENERATORS.values():
        if generator.logs is not None:
            generator.logs.clear()
        generator.powers.clear()


class _Generator:
    """``g``'s fixed-base table, and the discrete logs of the elements this
    run made as ``g^x``.

    Every base the schemes raise to a key share was made here as ``g^x``
    with ``x`` known -- hash points, ciphertext ephemerals, dealt keys -- so
    ``base^s`` is ``g^(x*s mod q)``: one table exponentiation instead of a
    full-width ``pow``.  A share value is not learned when it is made: it
    stays the exponent ``x*s`` (:class:`KnownPower`) until something reads
    it.  The memo is bounded and least-recently-used, run-scoped (emptied
    by :func:`forget_run`; nothing pickles or exports it) and read only by
    :meth:`Group.exp` and :func:`combine_in_exponent`: an evicted or
    never-seen element costs speed, never a result.  It exists only where exponents live modulo ``q``
    (``g^q == 1``); a toy group that fails this keeps every base on
    ``powm``.

    ``powers`` maps a combined exponent ``e mod q`` to ``g^e``, read only by
    :func:`combine_in_exponent`: every node of a domain combines the same
    statement to the same exponent, and this run raises ``g`` to it once.
    It is bounded and run-scoped like the memo, and sound as any memo of a
    pure function.  The table is process-scoped: it depends on ``g`` alone.
    """

    __slots__ = ("table", "logs", "powers")

    def __init__(self, p: int, q: int, g: int) -> None:
        self.table = FixedBaseTable(g, p, q)
        self.logs: Optional[OrderedDict[int, int]] = \
            OrderedDict() if pow(g, q, p) == 1 else None
        self.powers: OrderedDict[int, int] = OrderedDict()

    def power(self, exponent: int) -> int:
        """``g^exponent``, its log remembered."""
        element = self.table.pow(exponent)
        self.learn(element, exponent)
        return element

    def learn(self, element: int, exponent: int) -> None:
        """Remember that ``element`` is ``g^exponent``."""
        logs = self.logs
        if logs is not None:
            logs[element] = exponent % self.table.order
            logs.move_to_end(element)
            if len(logs) > KNOWN_LOGS_MAX:
                logs.popitem(last=False)

    def log(self, element: int) -> Optional[int]:
        """The discrete log of ``element``, or ``None`` when not known."""
        logs = self.logs
        log = logs.get(element) if logs is not None else None
        if log is not None:
            logs.move_to_end(element)
        return log

    def combined(self, exponent: int) -> int:
        """``g^exponent`` for a combined exponent, raised once per run
        while it stays among the last ``KNOWN_LOGS_MAX`` asked for."""
        exponent %= self.table.order
        powers = self.powers
        element = powers.get(exponent)
        if element is None:
            element = powers[exponent] = self.table.pow(exponent)
            if len(powers) > KNOWN_LOGS_MAX:
                powers.popitem(last=False)
        else:
            powers.move_to_end(exponent)
        return element


class KnownPower:
    """``g^exponent`` for an exponent this process knows, computed (and its
    log learned) on the first read of :attr:`element`.

    A share made on a base of known log is one: ``base^s_i`` is
    ``g^(log(base) * s_i mod q)``, and a combine needs only that exponent.
    The exponent is key-equivalent material and process-local (rule 5,
    "provenance" below): it is never an init field of anything, and nothing
    pickles it.
    """

    __slots__ = ("generator", "exponent", "_element")

    def __init__(self, generator: _Generator, exponent: int) -> None:
        self.generator = generator
        self.exponent = exponent
        self._element: Optional[int] = None

    @property
    def element(self) -> int:
        """``g^exponent``, computed once."""
        if self._element is None:
            self._element = self.generator.power(self.exponent)
        return self._element


_GENERATORS: dict[tuple[int, int, int], _Generator] = {}


def _generator(p: int, q: int, g: int) -> _Generator:
    key = (p, q, g)
    generator = _GENERATORS.get(key)
    if generator is None:
        generator = _GENERATORS[key] = _Generator(p, q, g)
    return generator


@run_scoped(maxsize=16384)
def _is_member_cached(p: int, q: int, a: int) -> bool:
    if not 1 <= a < p:
        return False
    if p == 2 * q + 1:
        # Safe prime: the order-q subgroup is exactly the quadratic residues,
        # so a Jacobi symbol replaces the ~5x costlier pow(a, q, p) test.
        return crypto_backend.jacobi(a, p) == 1
    return crypto_backend.powm(a, q, p) == 1


def _hash_to_scalar(q: int, parts: tuple[bytes, ...]) -> int:
    """The one definition of scalar derivation, behind ``hash_to_scalar``
    and the cached hash-to-group (see ``_challenge`` for the rationale)."""
    digest = hashlib.sha512(b"\x00".join(parts)).digest()
    return int.from_bytes(digest, "big") % q


@lru_cache(maxsize=8192)
def _hash_to_group_cached(p: int, q: int, g: int,
                          parts: tuple[bytes, ...]) -> tuple[int, int]:
    exponent = _hash_to_scalar(q, (b"h2g",) + parts)
    exponent = exponent if exponent != 0 else 1
    return _generator(p, q, g).table.pow(exponent), exponent


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
        """Return ``base ** exponent mod P``.

        A base whose discrete log this process knows (see
        :class:`_Generator`) is answered as ``g^(log * exponent)`` from the
        fixed-base table, any other by :func:`repro.crypto.backend.powm`.
        """
        generator = _generator(self.p, self.q, self.g)
        log = generator.log(base)
        if log is None:
            return crypto_backend.powm(base, exponent % self.q, self.p)
        return generator.power(log * exponent)

    def known_power(self, base: int, exponent: int) -> Optional[KnownPower]:
        """``base ** exponent`` as a :class:`KnownPower` when this process
        knows ``base``'s discrete log, else ``None``."""
        generator = _generator(self.p, self.q, self.g)
        log = generator.log(base)
        if log is None:
            return None
        return KnownPower(generator, log * exponent % self.q)

    def learn(self, element: int, exponent: int) -> None:
        """Remember that ``element`` is ``g ** exponent`` (a hash point), so
        raising it takes the fixed-base table."""
        _generator(self.p, self.q, self.g).learn(element, exponent)

    def knows_log(self, element: int) -> bool:
        """True if this run knows ``element``'s discrete log."""
        return _generator(self.p, self.q, self.g).log(element) is not None

    def mul(self, a: int, b: int) -> int:
        """Return the group product ``a * b mod P``."""
        return (a * b) % self.p

    def power_of_g(self, exponent: int) -> int:
        """Return ``g ** exponent`` via the fixed-base windowed table."""
        return _generator(self.p, self.q, self.g).power(exponent)

    def is_member(self, a: int) -> bool:
        """True if ``a`` is a member of the order-``q`` subgroup.

        Memoised; for safe primes the test is a Jacobi symbol rather than a
        full exponentiation (identical results, ~5x faster).
        """
        return _is_member_cached(self.p, self.q, a)

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
        Every call, memoised or not, refreshes the point's known log.
        """
        element, exponent = _hash_to_group_cached(self.p, self.q, self.g,
                                                  parts)
        self.learn(element, exponent)
        return element

    def random_scalar(self, rng) -> int:
        """Uniformly random non-zero exponent."""
        value = rng.randrange(1, self.q)
        return value

    def element_to_bytes(self, a: int) -> bytes:
        """Canonical byte encoding of a group element (32 bytes + sign pad)."""
        return a.to_bytes(self._element_size, "big")


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
#    verify key (``holds_published_share``), and a stamp is minted only on a
#    power of a group member: signature and coin bases are hashed into the
#    group, and ``decryption_share`` refuses an ephemeral that is not in it
#    (``(P - U)^secret`` for an odd secret is no member and fails the long
#    road, so a stamp on it would answer ``True`` where the verifier says
#    ``False``).
# 3. The stamp is an ``init=False, compare=False, repr=False`` field of the
#    frozen dataclasses (``Stamped``): ``dataclasses.replace`` and a
#    field-by-field rebuild drop it; equality, hashing and every
#    repr-derived digest ignore it.
# 4. The stamp is process-local: ``Stamped.__reduce__`` rebuilds a pickled
#    (or ``copy``-ed) artefact from its public fields alone.
# 5. So is a share's recorded exponent (``Share._power``, a
#    :class:`KnownPower`): it is a class-level default, not a dataclass
#    field, so no ``__init__`` takes it and ``dataclasses.replace``, a
#    rebuild, ``copy`` and ``__reduce__`` produce an eager share without it.
#    A share that crosses a process boundary arrives eager, with the pickle
#    bytes an eager share always had.
#
# Lazy witnesses.  Since a stamp answers the verifier before any field is
# read, nothing on the honest path reads the witness of a minted artefact.
# ``SigningKey.sign`` and ``prove_dlog_equality`` therefore draw their nonce
# eagerly (the RNG order is the eager code's) and build a ``Deferred``
# artefact: the first read of a declared field computes every field exactly
# as an eager maker would, from ``(group, secret, nonce, statement...)``, and
# drops the witness and with it the secret.  Anything that reads a field
# forces: the long-road verifiers, ``==`` and ``hash``, ``repr`` (which
# ``Cbc._encode`` is), ``dataclasses.replace`` (and so the tests'
# ``unstamped``), pickling and ``copy``.  What must not force: ``size_bytes``
# is a constant and reads no field, and every verifier puts its field-type
# gate *after* the stamp comparison.  ``__reduce__`` carries the public fields only, never the
# witness -- ``Stamped``'s for a signature or share, the proof's own for a
# ``ChaumPedersenProof``.
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


def holds_published_share(group: "Group", private_share,
                          share_verify_keys: Sequence[int]) -> bool:
    """True if ``g^secret`` is the verify key the dealer published for the
    private share's index (rule 2: only such a handle may stamp)."""
    index = private_share.index
    # the range test is load-bearing: index 0 would read the *last* key
    return (1 <= index <= len(share_verify_keys)
            and group.power_of_g(private_share.secret)
            == share_verify_keys[index - 1])


class Deferred:
    """Base of the frozen artefacts whose init fields can be computed on
    first read (see "lazy witnesses" above).  A subclass supplies
    ``_prove(*witness)``, returning its init fields in declared order."""

    @classmethod
    def deferred(cls, *witness):
        """An instance whose init fields ``cls._prove(*witness)`` computes
        when the first of them is read."""
        artefact = object.__new__(cls)
        object.__setattr__(artefact, "_witness", witness)
        return artefact

    def __getattr__(self, name):
        # Reached only for a name the instance does not hold.  The name is
        # checked before the witness is touched: a probe such as
        # ``hasattr(proof, "_minted_for")`` must fail and leave it in place.
        # The witness goes only once every field is set, so a ``_prove``
        # that raises raises again on the next read.
        field = type(self).__dataclass_fields__.get(name)
        witness = (self.__dict__.get("_witness")
                   if field is not None and field.init else None)
        if witness is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        fields = [field for field in dataclasses.fields(self) if field.init]
        for field, value in zip(fields, self._prove(*witness)):
            object.__setattr__(self, field.name, value)
        del self.__dict__["_witness"]
        return self.__dict__[name]


def _all_ints(*values) -> bool:
    return all(isinstance(value, int) for value in values)


@dataclass(frozen=True)
class ChaumPedersenProof(Deferred):
    """NIZK proof that ``log_g(v) == log_h(u)`` (discrete-log equality).

    Used to prove that a threshold signature / coin / decryption share was
    computed with the prover's correct key share, without revealing it.
    """

    commitment_g: int
    commitment_h: int
    response: int

    @staticmethod
    def _prove(group: Group, secret: int, nonce: int, base_h: int,
               value_g: int, value_h: "int | KnownPower",
               context: bytes) -> tuple:
        if isinstance(value_h, KnownPower):
            value_h = value_h.element
        commitment_g = group.power_of_g(nonce)
        commitment_h = group.exp(base_h, nonce)
        challenge = _challenge(group, context, base_h, value_g, value_h,
                               commitment_g, commitment_h)
        return commitment_g, commitment_h, (nonce + challenge * secret) % group.q

    def __reduce__(self):
        # The public fields only, never the witness, in the form the default
        # reduce gives an eager proof: the pickle bytes are what they were.
        return copyreg.__newobj__, (type(self),), {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)}


def _challenge(group: Group, context: bytes, base_h: int, value_g: int,
               value_h: int, commitment_g: int, commitment_h: int) -> int:
    """The Fiat-Shamir challenge for a Chaum-Pedersen transcript.

    The single definition shared by the prover and the verifiers -- if the
    transcript format ever changes, it changes everywhere at once.
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
                        value_g: int, value_h: "int | KnownPower", rng,
                        context: bytes = b"") -> ChaumPedersenProof:
    """Produce a Chaum-Pedersen proof for ``value_g = g^secret``, ``value_h = base_h^secret``.

    The nonce is drawn now; the commitments and the response are computed
    on the proof's first field read (see "lazy witnesses" above), and
    ``value_h`` is read then too.
    """
    return ChaumPedersenProof.deferred(group, secret, group.random_scalar(rng),
                                       base_h, value_g, value_h, context)


def verify_dlog_equality(group: Group, proof: ChaumPedersenProof, base_h: int,
                         value_g: int, value_h: int,
                         context: bytes = b"") -> bool:
    """Verify a Chaum-Pedersen discrete-log-equality proof.

    Memoised for the run (run-scoped, see :func:`forget_run`): verification
    is a pure function of the transcript, and in a simulated broadcast
    domain every receiver verifies the *same* share, so the n-fold
    re-verification across simulated nodes collapses to one real
    computation -- the long road for a verdict nobody in this run has
    established yet.  (A share still carrying its maker's stamp never gets
    here: the scheme's ``verify_share`` answers from the stamp, see
    "provenance" above.)  The per-node CPU cost model is charged by
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


@run_scoped(maxsize=32768)
def _verify_dlog_equality_cached(p: int, q: int, g: int, commitment_g: int,
                                 commitment_h: int, response: int, base_h: int,
                                 value_g: int, value_h: int,
                                 context: bytes) -> bool:
    group = Group(p=p, q=q, g=g)
    if not (group.is_member(value_g) and group.is_member(value_h)):
        return False
    challenge = _challenge(group, context, base_h, value_g, value_h,
                           commitment_g, commitment_h)
    lhs_g = group.power_of_g(response)
    rhs_g = group.mul(commitment_g, group.exp(value_g, challenge))
    if lhs_g != rhs_g:
        return False
    lhs_h = group.exp(base_h, response)
    rhs_h = group.mul(commitment_h, group.exp(value_h, challenge))
    return lhs_h == rhs_h


@lru_cache(maxsize=4096)
def _combine_weights(q: int, signers: tuple) -> tuple:
    """``(weights, root)`` for interpolating ``signers`` in the exponent:
    ``base^s = (prod value_i^weight_i)^root`` with signed integer weights
    and ``root`` the inverse modulo ``q`` of their common denominator,
    ``None`` when that is 1.
    """
    weights, denominator = lagrange_ratios_at_zero(PrimeField(q), signers)
    return weights, None if denominator == 1 else pow(denominator, -1, q)


def combine_in_exponent(group: Group, shares, threshold: int, error,
                        noun: str, accept=None) -> int:
    """Lagrange-combine signer-keyed shares into ``base^s``.

    The one tail of every threshold combiner (signatures, coins,
    decryption): keep the first share per signer, in input order, that
    ``accept`` admits -- the scheme's own ``verify_share``, or every share
    when the caller verified each on arrival and passes ``None`` -- then
    interpolate the ``threshold`` lowest signers in the exponent.  With
    fewer distinct signers than that it raises ``error``, the scheme's own
    exception class, counting them as ``noun``.

    Domain: every admitted ``share.value`` is a member of the order-``q``
    subgroup.  There the signed integer weights under one shared root (see
    :func:`_combine_weights`) give exactly what the residues ``λ_i mod q``
    give; on an order-``2q`` value the two differ by a sign.  The long road
    of ``verify_share`` tests membership of the value; a stamp vouches for
    ``base^secret``, and is minted only when ``base`` is a member (own coin
    and signature bases are hashed into the group, a ciphertext's ephemeral
    is tested by ``decryption_share`` and ``verify_share``).  No membership
    test runs here; a value that is a multiple of ``P`` has no inverse and
    is in no group, and raises ``error`` whichever weight it meets.

    When this process knows the discrete log of every value kept -- a
    share's own :class:`KnownPower`, else the memo (see
    :class:`_Generator`) -- the result is ``g^(root * sum weight_i *
    log_i)``: the same integer by the group law, and the same exponent
    ``log(base) * s`` for every signer set, so it is raised once
    (:meth:`_Generator.combined`).  No share value is read on that path.
    """
    distinct: dict = {}
    for share in shares:
        if accept is None or accept(share):
            distinct.setdefault(share.signer, share)
    if len(distinct) < threshold:
        raise error(f"need {threshold} valid {noun}, have {len(distinct)}")
    signers = tuple(sorted(distinct)[:threshold])
    weights, root = _combine_weights(group.q, signers)
    generator = _generator(group.p, group.q, group.g)
    exponent = 0
    for signer, weight in zip(signers, weights):
        share = distinct[signer]
        power = share._power
        if power is not None and power.generator is generator:
            log = power.exponent
        else:
            log = generator.log(share.value)
            if log is None:
                break
        exponent += weight * log
    else:
        return generator.combined(exponent if root is None
                                  else exponent * root)
    over, under = [], []
    for signer, weight in zip(signers, weights):
        if weight > 0:
            over.append((distinct[signer].value, weight))
        else:
            under.append((distinct[signer].value, -weight))
    modulus = group.p
    numerator = crypto_backend.multi_powm(over, modulus)
    denominator = crypto_backend.multi_powm(under, modulus)
    if not (numerator and denominator):
        # some value was a multiple of P, which is in no group
        raise error("a share value is not a group element")
    # one inversion for all negative weights together
    combined = numerator * pow(denominator, -1, modulus) % modulus
    if root is None:
        return combined
    return crypto_backend.powm(combined, root, modulus)
