"""Deterministic crypto-domain dealer with process-local and on-disk caches.

Every deployment the harness assembles needs a *crypto domain* per consensus
group: a digital-signature keyring plus up to four threshold schemes, each an
O(n^2) Shamir dealing (n share evaluations, n fixed-base exponentiations for
the verify keys).  Campaign matrices and experiment sweeps repeat the same
``(num_nodes, seed)`` cells over and over -- across cells, across worker
processes and across runs -- so dealing from scratch each time makes large-n
sweeps pay the setup cost repeatedly.

This module makes dealing

* **deterministic per scheme**: each scheme is dealt from its own child RNG
  stream derived from ``(domain seed, scheme name)``, so any *subset* of
  schemes can be dealt lazily (a protocol that never flips coins skips the
  ``coin_flip`` dealing entirely) without perturbing the keys of the others;
* **cached**: dealt schemes are memoised per process (the last
  :data:`DEALT_SCHEMES_MAX`), keyed by
  ``(num_nodes, seed, scheme, committee domain)``, and persisted to disk
  under ``benchmarks/results/dealer_cache/`` with the crypto-code
  fingerprint added to the key -- the same
  fingerprint discipline as the experiment result cache in
  :mod:`repro.expts.runner`, scoped to the files that actually determine the
  dealt keys.  A cache hit is bit-identical to a fresh deal (guarded by
  ``tests/testbed/test_dealer_cache.py``), so caching can only change wall
  clock, never simulation results.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.digital_sig import generate_keyring
from repro.crypto.field import interpolate_at_zero
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.threshold_coin import deal_threshold_coin
from repro.crypto.threshold_enc import deal_threshold_enc
from repro.crypto.threshold_sig import deal_threshold_sig
from repro.net.topology import faults_tolerated


def stable_seed(*parts) -> int:
    """Derive a process-independent integer seed from arbitrary parts.

    Python's built-in ``hash`` is salted per process, which would make runs
    irreproducible across invocations; a CRC of the canonical repr is stable.
    """
    return zlib.crc32(repr(parts).encode()) & 0xFFFFFFFF


#: scheme names, in the canonical order CryptoDomain stores them
SCHEME_KEYRING = "keyring"
SCHEME_THRESHOLD_SIG = "threshold_sig"
SCHEME_THRESHOLD_COIN = "threshold_coin"
SCHEME_COIN_FLIP = "coin_flip"
SCHEME_THRESHOLD_ENC = "threshold_enc"

ALL_SCHEMES = (SCHEME_KEYRING, SCHEME_THRESHOLD_SIG, SCHEME_THRESHOLD_COIN,
               SCHEME_COIN_FLIP, SCHEME_THRESHOLD_ENC)

#: default on-disk tier, resolved relative to the repo root
CACHE_DIR_NAME = os.path.join("benchmarks", "results", "dealer_cache")

#: entries the process tier keeps, least recently used evicted first: more
#: than two of the largest canonical deployment's sets (a 32x32 multi-hop
#: run deals 33 domains x at most 3 schemes), so no run re-deals its own
#: keys, while a long process no longer holds every seed it ever dealt for
DEALT_SCHEMES_MAX = 256


@dataclass
class CryptoDomain:
    """Key material for one consensus domain (a cluster, or the leader group).

    Schemes the deployment's protocol does not need are ``None`` (dealt
    lazily only when requested); :meth:`node_scheme` hands out per-node
    handles and tolerates missing schemes, matching the ``Optional`` scheme
    parameters of :class:`repro.crypto.timing.CryptoSuite`.
    """

    num_nodes: int
    faults: int
    signing_keys: list
    verify_keys: list
    threshold_sig: Optional[list] = None
    threshold_coin: Optional[list] = None
    coin_flip: Optional[list] = None
    threshold_enc: Optional[list] = None

    def node_scheme(self, scheme: str, local_id: int):
        """Node ``local_id``'s handle for ``scheme`` (None when not dealt)."""
        holders = getattr(self, scheme)
        return None if holders is None else holders[local_id]


def _scheme_rng(domain_seed: int, scheme: str,
                domain: tuple = ()) -> random.Random:
    """The independent child RNG stream one scheme is dealt from.

    Independence is what makes lazy subsets sound: skipping one scheme can
    never shift the randomness another scheme consumes.

    ``domain`` separates otherwise-identical dealings: two committees with
    the same ``(num_nodes, domain_seed)`` but different membership (an
    epoch-boundary reconfiguration re-dealing for a new committee) must not
    share keys.  The empty domain keeps the historical ``dealer-v1`` stream,
    so every existing deployment stays bit-identical.
    """
    if domain:
        return random.Random(
            stable_seed("dealer-v2", domain_seed, scheme, tuple(domain)))
    return random.Random(stable_seed("dealer-v1", domain_seed, scheme))


#: threshold scheme -> (dealer, k of its ``k * f + 1`` threshold, options),
#: in CryptoDomain order; a coin scheme is named after the CryptoSuite handle
#: of its flavor (``repro.crypto.timing.COIN_FLAVORS``)
_THRESHOLD_DEALERS = {
    SCHEME_THRESHOLD_SIG: (deal_threshold_sig, 2, {}),
    SCHEME_THRESHOLD_COIN: (deal_threshold_coin, 1, {"flavor": "tsig"}),
    SCHEME_COIN_FLIP: (deal_threshold_coin, 1, {"flavor": "flip"}),
    SCHEME_THRESHOLD_ENC: (deal_threshold_enc, 1, {}),
}


def deal_scheme(scheme: str, num_nodes: int, domain_seed: int,
                domain: tuple = ()):
    """Deal one scheme for a domain, from its own deterministic stream.

    Returns ``(signing_keys, verify_keys)`` for the keyring and a list of
    per-node scheme handles for the threshold schemes.
    """
    rng = _scheme_rng(domain_seed, scheme, domain)
    if scheme == SCHEME_KEYRING:
        return generate_keyring(num_nodes, rng)
    if scheme not in _THRESHOLD_DEALERS:
        raise ValueError(f"unknown scheme {scheme!r}; known: {ALL_SCHEMES}")
    dealer, quorums, options = _THRESHOLD_DEALERS[scheme]
    return dealer(num_nodes, quorums * faults_tolerated(num_nodes) + 1, rng,
                  **options)


def _dealt_logs(scheme: str, value) -> list[tuple[int, int]]:
    """The ``(element, exponent)`` pairs dealing ``value`` taught this
    process: every key it publishes is ``g`` to a secret the dealt material
    holds -- a signer's secret, a node's key share, or the master secret
    its shares interpolate to.

    The known-log memo is process-local, so a disk entry carries these
    pairs and a load re-learns them: without them every exponentiation of a
    loaded key (an ``encrypt``, a signature or share verification) pays a
    full-width ``pow`` instead of the fixed-base table."""
    if scheme == SCHEME_KEYRING:
        return [(key.public_element, key.secret) for key in value[0]]
    public_key = value[0].public_key
    shares = [holder.private_share for holder in value]
    master_secret = interpolate_at_zero(
        public_key.group.scalar_field,
        [(share.index, share.secret) for share in shares[:public_key.threshold]])
    master_key = (public_key.encryption_key if scheme == SCHEME_THRESHOLD_ENC
                  else public_key.master_verify_key)
    return [(master_key, master_secret),
            *zip(public_key.share_verify_keys,
                 (share.secret for share in shares))]


def _crypto_fingerprint() -> str:
    """Fingerprint of the sources that determine dealt key material.

    The experiment cache fingerprints all of ``src/repro`` (any change may
    change a *result*); dealt keys only depend on ``repro.crypto`` and this
    module, so the dealer cache survives unrelated edits (a net-layer tweak
    does not re-deal every domain) while any change to the dealing logic or
    the primitives invalidates it.
    """
    from repro.expts.runner import code_fingerprint

    crypto_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "crypto")
    with open(os.path.abspath(__file__), "rb") as handle:
        own_crc = zlib.crc32(handle.read())
    return hashlib.sha256(
        f"{code_fingerprint(crypto_root)}|{own_crc}".encode()).hexdigest()[:16]


def _default_cache_dir() -> str:
    from repro.expts.runner import repo_root

    return os.path.join(repo_root(), CACHE_DIR_NAME)


class DealerCache:
    """Two-tier (bounded process LRU + disk pickle) cache of dealt schemes.

    The disk tier uses the same discipline as ``repro.expts.runner``'s result
    cache: one file per content key, atomic rename on write (concurrent
    workers race benignly), and a corrupt or unreadable entry behaves like a
    miss.  Because dealing is a pure function of ``(num_nodes, seed,
    scheme)`` plus the fingerprinted code, a hit is bit-identical to a fresh
    deal.  A disk entry also holds the known logs its dealing taught
    (:func:`_dealt_logs`), which a load re-learns.
    """

    def __init__(self, directory: Optional[str] = None,
                 use_disk: bool = True) -> None:
        self._directory = directory
        self.use_disk = use_disk
        self._memory: OrderedDict[tuple, object] = OrderedDict()
        self._fingerprint: Optional[str] = None
        #: instrumentation for tests/benchmarks
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> str:
        """The disk-tier directory (resolved lazily)."""
        if self._directory is None:
            self._directory = _default_cache_dir()
        return self._directory

    def fingerprint(self) -> str:
        """The (memoised) crypto-code fingerprint keying every disk entry."""
        if self._fingerprint is None:
            self._fingerprint = _crypto_fingerprint()
        return self._fingerprint

    # ----------------------------------------------------------------- tiers
    def _disk_path(self, key: tuple) -> str:
        # Only the disk tier outlives a code change, so only it is keyed on
        # the fingerprint: a process never sees two crypto sources.
        fields = {"n": key[0], "f": key[1], "seed": key[2], "scheme": key[3],
                  "code": self.fingerprint()}
        if key[4]:
            # The committee domain joins the payload only when non-empty so
            # every pre-domain disk entry keeps its path (no mass
            # invalidation when the key scheme grew this field).
            fields["domain"] = list(key[4])
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.pkl")

    def _disk_get(self, key: tuple):
        """The entry's dealt material, its dealing's known logs learned
        (None on a miss or an unreadable entry)."""
        try:
            with open(self._disk_path(key), "rb") as handle:
                entry = pickle.load(handle)
            value, logs = entry["material"], entry["known_logs"]
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, KeyError, TypeError):
            return None
        for element, exponent in logs:
            DEFAULT_GROUP.learn(element, exponent)
        return value

    def _disk_put(self, key: tuple, value) -> None:
        try:
            os.makedirs(self.directory, exist_ok=True)
            path = self._disk_path(key)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                pickle.dump({"material": value,
                             "known_logs": _dealt_logs(key[3], value)},
                            handle)
            os.replace(tmp, path)
        except OSError:
            pass  # a read-only checkout degrades to process-local caching

    # ------------------------------------------------------------------- API
    def scheme(self, scheme: str, num_nodes: int, domain_seed: int,
               domain: tuple = ()):
        """One scheme's dealt material, through both cache tiers.

        The derived fault bound is part of the key: the thresholds the
        schemes are dealt at come from ``faults_tolerated``, which lives
        outside the fingerprinted crypto sources — keying on it ensures a
        change to the ``n = 3f + 1`` rule can never serve key material dealt
        under the old thresholds.

        ``domain`` is a flat tuple of ints/strings naming the committee (or
        other sub-domain) the keys belong to.  It is part of both cache
        tiers' keys: two committees with the same ``(n, f, seed)`` but
        different membership can never collide on an entry.
        """
        key = (num_nodes, faults_tolerated(num_nodes), domain_seed, scheme,
               tuple(domain))
        memory = self._memory
        value = memory.get(key)
        if value is not None:
            self.hits += 1
            memory.move_to_end(key)
            return value
        if self.use_disk:
            value = self._disk_get(key)
        if value is not None:
            self.hits += 1
        else:
            self.misses += 1
            value = deal_scheme(scheme, num_nodes, domain_seed, domain=key[4])
            if self.use_disk:
                self._disk_put(key, value)
        memory[key] = value
        if len(memory) > DEALT_SCHEMES_MAX:
            memory.popitem(last=False)
        return value

    def domain(self, num_nodes: int, domain_seed: int,
               schemes: Sequence[str] = ALL_SCHEMES,
               domain: tuple = ()) -> CryptoDomain:
        """Assemble a :class:`CryptoDomain` dealing only ``schemes``.

        ``domain`` separates committees sharing ``(num_nodes,
        domain_seed)`` -- see :meth:`scheme`.
        """
        unknown = set(schemes) - set(ALL_SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes {sorted(unknown)}; "
                             f"known: {ALL_SCHEMES}")
        committee_domain = tuple(domain)
        signing_keys, verify_keys = self.scheme(
            SCHEME_KEYRING, num_nodes, domain_seed, domain=committee_domain)
        wanted = set(schemes)
        crypto_domain = CryptoDomain(
            num_nodes=num_nodes,
            faults=faults_tolerated(num_nodes),
            signing_keys=list(signing_keys),
            verify_keys=list(verify_keys),
        )
        for scheme in _THRESHOLD_DEALERS:
            if scheme in wanted:
                # Copy the list (like the keyring above): a caller mutating
                # its domain must not poison the shared process cache.
                setattr(crypto_domain, scheme,
                        list(self.scheme(scheme, num_nodes, domain_seed,
                                         domain=committee_domain)))
        return crypto_domain


#: the shared default cache used by the harness
DEFAULT_DEALER_CACHE = DealerCache()


def deal_crypto_domain(num_nodes: int, domain_seed: int,
                       schemes: Sequence[str] = ALL_SCHEMES,
                       domain: tuple = ()) -> CryptoDomain:
    """Deal (or fetch from :data:`DEFAULT_DEALER_CACHE`) every scheme a
    consensus domain needs.

    The result is a pure function of ``(num_nodes, domain_seed, domain)`` per
    scheme: repeated calls -- in this process, another worker, or another run
    -- return bit-identical key material.  ``domain`` names the committee for
    reconfiguration-time re-dealing (empty = the classic fixed-committee
    stream, unchanged).
    """
    return DEFAULT_DEALER_CACHE.domain(num_nodes, domain_seed,
                                       schemes=schemes, domain=domain)
