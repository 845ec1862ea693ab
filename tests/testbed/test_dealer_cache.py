"""Property tests for the crypto-domain dealer cache.

The cache may only ever change wall clock: a cached domain must be
bit-identical to a freshly dealt one (same shares, same verify keys, same
signatures over a fixed message), and the key must miss when the seed
changes.
"""

import ast
import builtins
import random

import pytest

from repro.protocols.base import PROTOCOL_NAMES
from repro.testbed import dealer_cache
from repro.testbed.dealer_cache import (
    ALL_SCHEMES,
    SCHEME_COIN_FLIP,
    SCHEME_KEYRING,
    SCHEME_THRESHOLD_COIN,
    SCHEME_THRESHOLD_ENC,
    SCHEME_THRESHOLD_SIG,
    CryptoDomain,
    DealerCache,
    deal_crypto_domain,
    deal_scheme,
)
from repro.testbed.harness import multihop_crypto_schemes


def assert_domains_bit_identical(a: CryptoDomain, b: CryptoDomain) -> None:
    assert a.num_nodes == b.num_nodes and a.faults == b.faults
    assert [key.secret for key in a.signing_keys] == \
        [key.secret for key in b.signing_keys]
    assert [key.public_element for key in a.verify_keys] == \
        [key.public_element for key in b.verify_keys]
    for scheme_name in (SCHEME_THRESHOLD_SIG, SCHEME_THRESHOLD_COIN,
                        SCHEME_COIN_FLIP):
        left, right = getattr(a, scheme_name), getattr(b, scheme_name)
        assert (left is None) == (right is None)
        if left is None:
            continue
        assert [s.private_share.secret for s in left] == \
            [s.private_share.secret for s in right]
        assert left[0].public_key.share_verify_keys == \
            right[0].public_key.share_verify_keys
        assert left[0].public_key.master_verify_key == \
            right[0].public_key.master_verify_key


class TestDeterministicDealing:
    @pytest.mark.parametrize("num_nodes,seed", [(4, 0), (4, 7), (7, 0),
                                                (10, 1234), (16, 99)])
    def test_cached_equals_fresh(self, num_nodes, seed):
        cache = DealerCache()
        cached = cache.domain(num_nodes, seed)
        fresh = CryptoDomain(
            num_nodes=num_nodes, faults=(num_nodes - 1) // 3,
            signing_keys=list(deal_scheme(SCHEME_KEYRING, num_nodes, seed)[0]),
            verify_keys=list(deal_scheme(SCHEME_KEYRING, num_nodes, seed)[1]),
            threshold_sig=deal_scheme(SCHEME_THRESHOLD_SIG, num_nodes, seed),
            threshold_coin=deal_scheme(SCHEME_THRESHOLD_COIN, num_nodes, seed),
            coin_flip=deal_scheme(SCHEME_COIN_FLIP, num_nodes, seed),
            threshold_enc=deal_scheme(SCHEME_THRESHOLD_ENC, num_nodes, seed),
        )
        assert_domains_bit_identical(cached, fresh)

    def test_signatures_over_fixed_message_identical(self):
        message = b"dealer-cache-equivalence"
        rng_a, rng_b = random.Random(5), random.Random(5)
        cache = DealerCache()
        cached = cache.domain(4, 42)
        fresh_sig = deal_scheme(SCHEME_THRESHOLD_SIG, 4, 42)
        shares_cached = [s.sign_share(message, rng_a)
                         for s in cached.threshold_sig[:3]]
        shares_fresh = [s.sign_share(message, rng_b) for s in fresh_sig[:3]]
        assert [s.value for s in shares_cached] == \
            [s.value for s in shares_fresh]
        combined_cached = cached.threshold_sig[0].combine(message, shares_cached)
        combined_fresh = fresh_sig[0].combine(message, shares_fresh)
        assert combined_cached.value == combined_fresh.value
        assert fresh_sig[0].verify_signature(message, combined_cached)

    def test_seed_change_misses(self):
        cache = DealerCache()
        cache.domain(4, 1)
        first_misses = cache.misses
        cache.domain(4, 2)
        assert cache.misses > first_misses
        a = cache.domain(4, 1)
        b = cache.domain(4, 2)
        assert a.threshold_sig[0].private_share.secret != \
            b.threshold_sig[0].private_share.secret

    def test_num_nodes_change_misses(self):
        cache = DealerCache()
        cache.domain(4, 1)
        first_misses = cache.misses
        cache.domain(7, 1)
        assert cache.misses > first_misses

    def test_process_tier_hit_shares_scheme_objects_not_lists(self):
        cache = DealerCache()
        a = cache.domain(4, 3)
        b = cache.domain(4, 3)
        # Scheme handles are shared (the cache hit), but each domain gets its
        # own list so a caller mutation cannot poison the process cache.
        assert a.threshold_sig is not b.threshold_sig
        assert all(x is y for x, y in zip(a.threshold_sig, b.threshold_sig))
        a.threshold_sig[0] = None
        assert cache.domain(4, 3).threshold_sig[0] is not None
        assert cache.hits > 0


class TestProcessTierBound:
    """The process tier is least-recently-used under ``DEALT_SCHEMES_MAX``:
    a long process holds a bounded number of dealt schemes, and a scheme
    evicted from it is dealt again bit for bit."""

    def test_holds_at_most_the_bound_and_re_deals_bit_identically(
            self, monkeypatch):
        monkeypatch.setattr(dealer_cache, "DEALT_SCHEMES_MAX", 3)
        cache = DealerCache()
        first = cache.scheme(SCHEME_THRESHOLD_SIG, 4, 0)
        kept = cache.scheme(SCHEME_THRESHOLD_SIG, 4, 1)
        for seed in range(2, 8):
            cache.scheme(SCHEME_THRESHOLD_SIG, 4, 1)  # recently used: kept
            cache.scheme(SCHEME_THRESHOLD_SIG, 4, seed)
            assert len(cache._memory) <= 3
        assert cache.scheme(SCHEME_THRESHOLD_SIG, 4, 1) is kept
        misses = cache.misses
        again = cache.scheme(SCHEME_THRESHOLD_SIG, 4, 0)
        assert cache.misses == misses + 1  # evicted, so dealt afresh
        assert again is not first
        assert [s.private_share.secret for s in again] == \
            [s.private_share.secret for s in first]
        assert again[0].public_key.share_verify_keys == \
            first[0].public_key.share_verify_keys
        assert again[0].public_key.master_verify_key == \
            first[0].public_key.master_verify_key

    def test_bound_holds_two_runs_of_the_largest_deployment(self):
        # a 32x32 multi-hop run: 32 cluster domains and the leaders' one
        per_domain = max(len(schemes) for protocol in PROTOCOL_NAMES
                         for schemes in multihop_crypto_schemes(
                             protocol, None).values())
        assert dealer_cache.DEALT_SCHEMES_MAX >= 2 * 33 * per_domain


class TestProcessOnly:
    """Dealt schemes live in the process and nowhere else: the cache takes
    no directory, reads and writes no file, and keeps no serialiser."""

    def test_takes_no_parameters(self):
        assert DealerCache.use_disk is False
        with pytest.raises(TypeError):
            DealerCache(use_disk=True)
        with pytest.raises(TypeError):
            DealerCache(directory="dealt")

    def test_dealing_opens_no_file(self, monkeypatch):
        opened = []
        real_open = builtins.open

        def recording_open(*args, **kwargs):
            opened.append(args[0] if args else kwargs.get("file"))
            return real_open(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        cache = DealerCache()
        cache.domain(4, 2024)  # a miss on every scheme
        cache.domain(4, 2024)  # a hit on every scheme
        assert cache.misses == len(ALL_SCHEMES) and cache.hits > 0
        assert opened == []

    def test_module_imports_no_serialiser_and_no_experiment_code(self):
        with open(dealer_cache.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not imported & {"pickle", "json"}
        assert not any(name.startswith("repro.expts") for name in imported)


class TestLazySubsets:
    def test_subset_matches_full_deal(self):
        """Skipping a scheme never perturbs the keys of the others."""
        full = DealerCache().domain(4, 11)
        lazy = DealerCache().domain(
            4, 11, schemes=(SCHEME_KEYRING, SCHEME_THRESHOLD_SIG,
                            SCHEME_THRESHOLD_ENC))
        assert lazy.coin_flip is None and lazy.threshold_coin is None
        assert [s.private_share.secret for s in lazy.threshold_sig] == \
            [s.private_share.secret for s in full.threshold_sig]
        assert [s.private_share.secret for s in lazy.threshold_enc] == \
            [s.private_share.secret for s in full.threshold_enc]

    def test_node_scheme_tolerates_missing(self):
        lazy = DealerCache().domain(
            4, 11, schemes=(SCHEME_KEYRING,))
        assert lazy.node_scheme(SCHEME_COIN_FLIP, 0) is None
        assert lazy.node_scheme(SCHEME_THRESHOLD_SIG, 2) is None

    def test_a_coin_scheme_is_dealt_in_the_flavor_its_suite_handle_serves(self):
        from repro.crypto.timing import COIN_FLAVORS

        for flavor, coin in COIN_FLAVORS.items():
            assert {scheme.flavor for scheme in deal_scheme(coin.handle, 4, 3)} \
                == {flavor}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            DealerCache().domain(4, 0, schemes=("bogus",))
        with pytest.raises(ValueError):
            deal_scheme("bogus", 4, 0)


class TestHarnessIntegration:
    def test_deal_crypto_domain_uses_shared_default_cache(self, monkeypatch):
        cache = DealerCache()
        monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE", cache)
        via_helper = deal_crypto_domain(4, 21)
        direct = cache.domain(4, 21)
        assert all(x is y for x, y in zip(via_helper.threshold_sig,
                                          direct.threshold_sig))


class TestCommitteeDomains:
    """The epoch/committee domain dimension added for dynamic membership:
    two different committees of the same ``(n, seed)`` must never share
    keys, while the empty domain stays bit-identical to the legacy path."""

    def test_empty_domain_is_the_legacy_deal(self):
        cache = DealerCache()
        legacy = cache.domain(4, 13)
        explicit = cache.domain(4, 13, domain=())
        assert_domains_bit_identical(legacy, explicit)
        assert deal_scheme(SCHEME_THRESHOLD_SIG, 4, 13, domain=())[0] \
            .private_share.secret == \
            deal_scheme(SCHEME_THRESHOLD_SIG, 4, 13)[0].private_share.secret

    def test_different_committees_get_different_keys(self):
        cache = DealerCache()
        a = cache.domain(4, 13, domain=("committee", 0, 1, 2, 3))
        b = cache.domain(4, 13, domain=("committee", 0, 1, 2, 4))
        plain = cache.domain(4, 13)
        secrets = {a.threshold_sig[0].private_share.secret,
                   b.threshold_sig[0].private_share.secret,
                   plain.threshold_sig[0].private_share.secret}
        assert len(secrets) == 3
        signing = {a.signing_keys[0].secret, b.signing_keys[0].secret,
                   plain.signing_keys[0].secret}
        assert len(signing) == 3

    def test_recurring_committee_is_a_cache_hit(self):
        cache = DealerCache()
        committee = ("committee", 0, 1, 2, 3)
        first = cache.domain(4, 13, domain=committee)
        misses = cache.misses
        second = cache.domain(4, 13, domain=committee)
        assert cache.misses == misses and cache.hits > 0
        assert_domains_bit_identical(first, second)

    def test_domain_deal_is_deterministic(self):
        committee = ("committee", 2, 3, 4, 5)
        a = deal_scheme(SCHEME_THRESHOLD_SIG, 4, 99, domain=committee)
        b = deal_scheme(SCHEME_THRESHOLD_SIG, 4, 99, domain=committee)
        assert [s.private_share.secret for s in a] == \
            [s.private_share.secret for s in b]

