"""Deterministic crypto-domain dealer with a bounded process cache.

Every deployment the harness assembles needs a *crypto domain* per consensus
group: a digital-signature keyring plus the four threshold schemes, each an
O(n^2) Shamir dealing (n share evaluations, n fixed-base exponentiations for
the verify keys).  Campaign matrices and experiment sweeps repeat the same
``(num_nodes, seed)`` cells over and over within one process, so dealing
from scratch each time makes large-n sweeps pay the setup cost repeatedly.

This module makes dealing

* **deterministic per scheme**: each scheme is dealt from its own child RNG
  stream derived from ``(domain seed, scheme name)``, so the keys of one
  scheme never depend on which other schemes were dealt before it;
* **cached**: dealt schemes are memoised per process (the last
  :data:`DEALT_SCHEMES_MAX`), keyed by
  ``(num_nodes, seed, scheme, committee domain)``.  A cache hit is
  bit-identical to a fresh deal (guarded by
  ``tests/testbed/test_dealer_cache.py``), so caching can only change wall
  clock, never simulation results.  The cache is process-scoped; the known
  logs a dealing teaches are run-scoped, so a hit in a later run teaches
  them again (:func:`_dealt_logs`).

Every domain deals every scheme: a fresh deal costs about 0.1 ms a scheme
at n = 4 and under 2 ms at n = 64 (2-core host), and the paper's Fig. 10
costs are charged per operation, not per dealt scheme.
"""

from __future__ import annotations

import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass

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

#: entries the process tier keeps, least recently used evicted first: more
#: than two of the largest canonical deployment's sets (a 32x32 multi-hop
#: run deals 33 domains x 5 schemes), so no run re-deals its own keys, while
#: a long process no longer holds every seed it ever dealt for
DEALT_SCHEMES_MAX = 384


@dataclass
class CryptoDomain:
    """Key material for one consensus domain (a cluster, or the leader group):
    the keyring and, per threshold scheme, one handle per node."""

    num_nodes: int
    faults: int
    signing_keys: list
    verify_keys: list
    threshold_sig: list
    threshold_coin: list
    coin_flip: list
    threshold_enc: list


def _scheme_rng(domain_seed: int, scheme: str,
                domain: tuple = ()) -> random.Random:
    """The independent child RNG stream one scheme is dealt from.

    Independence is what keeps every scheme's keys fixed as schemes are
    added: dealing one more can never shift the randomness another consumes.

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
    """The ``(element, exponent)`` pairs dealing ``value`` taught the
    known-log memo: every key it publishes is ``g`` to a secret the dealt material
    holds -- a signer's secret, a node's key share, or the master secret
    its shares interpolate to.

    The known-log memo is run-scoped (``repro.crypto.group.forget_run``), so
    a later run that reuses cached keys learns these pairs again: without
    them every exponentiation of a cached key (an ``encrypt``, a signature
    or share verification) pays a full-width ``pow`` instead of the
    fixed-base table."""
    if scheme == SCHEME_KEYRING:
        return [(key.public_element, key.secret) for key in value[0]]
    public_key = value[0].public_key
    shares = [holder.private_share for holder in value]
    master_secret = interpolate_at_zero(
        public_key.group.scalar_field,
        [(share.index, share.secret)
         for share in shares[:public_key.threshold]])
    master_key = (public_key.encryption_key if scheme == SCHEME_THRESHOLD_ENC
                  else public_key.master_verify_key)
    return [(master_key, master_secret),
            *zip(public_key.share_verify_keys,
                 (share.secret for share in shares))]


def _teach_logs(scheme: str, value) -> None:
    """Learn the known logs of cached material again when this run does not
    know its first published key: a finished run forgot them."""
    first_key = (value[1][0].public_element if scheme == SCHEME_KEYRING
                 else value[0].public_key.share_verify_keys[0])
    if not DEFAULT_GROUP.knows_log(first_key):
        for element, exponent in _dealt_logs(scheme, value):
            DEFAULT_GROUP.learn(element, exponent)


class DealerCache:
    """Bounded process LRU of dealt schemes.

    Because dealing is a pure function of ``(num_nodes, seed, scheme,
    domain)``, a hit is bit-identical to a fresh deal.  A hit in a run that
    has not learned its keys' logs teaches them (:func:`_teach_logs`).
    """

    #: always False; kept while benchmarks/ledger/ reads and patches it
    use_disk = False

    def __init__(self) -> None:
        self._memory: OrderedDict[tuple, object] = OrderedDict()
        #: instrumentation for tests/benchmarks
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------- API
    def scheme(self, scheme: str, num_nodes: int, domain_seed: int,
               domain: tuple = ()):
        """One scheme's dealt material, dealt on a miss.

        ``domain`` is a flat tuple of ints/strings naming the committee (or
        other sub-domain) the keys belong to.  It is part of the key: two
        committees with the same ``(n, seed)`` but different membership can
        never collide on an entry.
        """
        key = (num_nodes, domain_seed, scheme, tuple(domain))
        memory = self._memory
        value = memory.get(key)
        if value is not None:
            self.hits += 1
            memory.move_to_end(key)
            _teach_logs(scheme, value)
            return value
        self.misses += 1
        value = deal_scheme(scheme, num_nodes, domain_seed, domain=key[3])
        memory[key] = value
        if len(memory) > DEALT_SCHEMES_MAX:
            memory.popitem(last=False)
        return value

    def domain(self, num_nodes: int, domain_seed: int,
               domain: tuple = ()) -> CryptoDomain:
        """Assemble a :class:`CryptoDomain` of every scheme.

        ``domain`` separates committees sharing ``(num_nodes,
        domain_seed)`` -- see :meth:`scheme`.
        """
        signing_keys, verify_keys = self.scheme(
            SCHEME_KEYRING, num_nodes, domain_seed, domain=domain)
        # Copy every list: a caller mutating its domain must not poison the
        # shared process cache.
        return CryptoDomain(
            num_nodes=num_nodes,
            faults=faults_tolerated(num_nodes),
            signing_keys=list(signing_keys),
            verify_keys=list(verify_keys),
            **{scheme: list(self.scheme(scheme, num_nodes, domain_seed,
                                        domain=domain))
               for scheme in _THRESHOLD_DEALERS})


#: the shared default cache used by the harness
DEFAULT_DEALER_CACHE = DealerCache()


def deal_crypto_domain(num_nodes: int, domain_seed: int,
                       domain: tuple = ()) -> CryptoDomain:
    """Deal (or fetch from :data:`DEFAULT_DEALER_CACHE`) every scheme of a
    consensus domain.

    The result is a pure function of ``(num_nodes, domain_seed, domain)`` per
    scheme: repeated calls -- in this process, another worker, or another run
    -- return bit-identical key material.  ``domain`` names the committee for
    reconfiguration-time re-dealing (empty = the classic fixed-committee
    stream, unchanged).
    """
    return DEFAULT_DEALER_CACHE.domain(num_nodes, domain_seed, domain=domain)
