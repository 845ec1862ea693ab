"""Property tests for the crypto-domain dealer cache.

The cache may only ever change wall clock: a cached domain must be
bit-identical to a freshly dealt one (same shares, same verify keys, same
signatures over a fixed message), across both tiers, and the key must miss
when the seed changes.
"""

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
    def test_cached_equals_fresh(self, num_nodes, seed, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
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

    def test_signatures_over_fixed_message_identical(self, tmp_path):
        message = b"dealer-cache-equivalence"
        rng_a, rng_b = random.Random(5), random.Random(5)
        cache = DealerCache(directory=str(tmp_path))
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

    def test_disk_tier_round_trip_bit_identical(self, tmp_path):
        writer = DealerCache(directory=str(tmp_path))
        dealt = writer.domain(7, 17)
        reader = DealerCache(directory=str(tmp_path))
        loaded = reader.domain(7, 17)
        assert reader.hits > 0 and reader.misses == 0
        assert_domains_bit_identical(dealt, loaded)

    def test_seed_change_misses(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
        cache.domain(4, 1)
        first_misses = cache.misses
        cache.domain(4, 2)
        assert cache.misses > first_misses
        a = cache.domain(4, 1)
        b = cache.domain(4, 2)
        assert a.threshold_sig[0].private_share.secret != \
            b.threshold_sig[0].private_share.secret

    def test_num_nodes_change_misses(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
        cache.domain(4, 1)
        first_misses = cache.misses
        cache.domain(7, 1)
        assert cache.misses > first_misses

    def test_only_the_disk_tier_reads_the_code_fingerprint(self, tmp_path):
        """The fingerprint is constant per process, so the process tier
        gains nothing from it: a memory-only cache never computes it."""
        memory_only = DealerCache(use_disk=False)
        memory_only.domain(4, 5)
        assert memory_only.misses > 0 and memory_only._fingerprint is None
        on_disk = DealerCache(directory=str(tmp_path))
        on_disk.domain(4, 5)
        assert on_disk._fingerprint == memory_only.fingerprint()

    def test_process_tier_hit_shares_scheme_objects_not_lists(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
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
        cache = DealerCache(use_disk=False)
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


class TestLazySubsets:
    def test_subset_matches_full_deal(self, tmp_path):
        """Skipping a scheme never perturbs the keys of the others."""
        full = DealerCache(directory=str(tmp_path / "a")).domain(4, 11)
        lazy = DealerCache(directory=str(tmp_path / "b")).domain(
            4, 11, schemes=(SCHEME_KEYRING, SCHEME_THRESHOLD_SIG,
                            SCHEME_THRESHOLD_ENC))
        assert lazy.coin_flip is None and lazy.threshold_coin is None
        assert [s.private_share.secret for s in lazy.threshold_sig] == \
            [s.private_share.secret for s in full.threshold_sig]
        assert [s.private_share.secret for s in lazy.threshold_enc] == \
            [s.private_share.secret for s in full.threshold_enc]

    def test_node_scheme_tolerates_missing(self, tmp_path):
        lazy = DealerCache(directory=str(tmp_path)).domain(
            4, 11, schemes=(SCHEME_KEYRING,))
        assert lazy.node_scheme(SCHEME_COIN_FLIP, 0) is None
        assert lazy.node_scheme(SCHEME_THRESHOLD_SIG, 2) is None

    def test_a_coin_scheme_is_dealt_in_the_flavor_its_suite_handle_serves(self):
        from repro.crypto.timing import COIN_FLAVORS

        for flavor, coin in COIN_FLAVORS.items():
            assert {scheme.flavor for scheme in deal_scheme(coin.handle, 4, 3)} \
                == {flavor}

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DealerCache(directory=str(tmp_path)).domain(4, 0, schemes=("bogus",))
        with pytest.raises(ValueError):
            deal_scheme("bogus", 4, 0)


class TestCorruptDiskEntries:
    def test_corrupt_entry_behaves_like_miss(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
        reference = cache.domain(4, 5)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not a pickle")
        fresh_cache = DealerCache(directory=str(tmp_path))
        recovered = fresh_cache.domain(4, 5)
        assert fresh_cache.misses == len(ALL_SCHEMES)
        assert_domains_bit_identical(reference, recovered)


    def test_entry_without_known_logs_behaves_like_miss(self, tmp_path):
        import pickle

        cache = DealerCache(directory=str(tmp_path))
        reference = cache.domain(4, 5)
        for entry in tmp_path.iterdir():
            material = pickle.loads(entry.read_bytes())["material"]
            entry.write_bytes(pickle.dumps(material))
        fresh_cache = DealerCache(directory=str(tmp_path))
        recovered = fresh_cache.domain(4, 5)
        assert fresh_cache.misses == len(ALL_SCHEMES)
        assert_domains_bit_identical(reference, recovered)


class TestHarnessIntegration:
    def test_deal_crypto_domain_uses_shared_default_cache(self, tmp_path,
                                                           monkeypatch):
        from repro.testbed import dealer_cache

        cache = DealerCache(directory=str(tmp_path))
        monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE", cache)
        via_helper = deal_crypto_domain(4, 21)
        direct = cache.domain(4, 21)
        assert all(x is y for x, y in zip(via_helper.threshold_sig,
                                          direct.threshold_sig))


class TestCommitteeDomains:
    """The epoch/committee domain dimension added for dynamic membership:
    two different committees of the same ``(n, seed)`` must never share
    keys, while the empty domain stays bit-identical to the legacy path."""

    def test_empty_domain_is_the_legacy_deal(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
        legacy = cache.domain(4, 13)
        explicit = cache.domain(4, 13, domain=())
        assert_domains_bit_identical(legacy, explicit)
        assert deal_scheme(SCHEME_THRESHOLD_SIG, 4, 13, domain=())[0] \
            .private_share.secret == \
            deal_scheme(SCHEME_THRESHOLD_SIG, 4, 13)[0].private_share.secret

    def test_different_committees_get_different_keys(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
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

    def test_recurring_committee_is_a_cache_hit(self, tmp_path):
        cache = DealerCache(directory=str(tmp_path))
        committee = ("committee", 0, 1, 2, 3)
        first = cache.domain(4, 13, domain=committee)
        misses = cache.misses
        second = cache.domain(4, 13, domain=committee)
        assert cache.misses == misses and cache.hits > 0
        assert_domains_bit_identical(first, second)

    def test_committee_domain_disk_round_trip(self, tmp_path):
        committee = ("committee", 1, 2, 3, 4)
        writer = DealerCache(directory=str(tmp_path))
        dealt = writer.domain(4, 17, domain=committee)
        reader = DealerCache(directory=str(tmp_path))
        loaded = reader.domain(4, 17, domain=committee)
        assert reader.hits > 0 and reader.misses == 0
        assert_domains_bit_identical(dealt, loaded)

    def test_domain_deal_is_deterministic(self):
        committee = ("committee", 2, 3, 4, 5)
        a = deal_scheme(SCHEME_THRESHOLD_SIG, 4, 99, domain=committee)
        b = deal_scheme(SCHEME_THRESHOLD_SIG, 4, 99, domain=committee)
        assert [s.private_share.secret for s in a] == \
            [s.private_share.secret for s in b]


class TestDiskTierKnownLogs:
    """A key loaded from disk was dealt in another process, whose known-log
    memo did not come with it: the load re-learns what the dealing taught,
    so an honest epoch on loaded keys raises nothing with a full ``pow``."""

    def test_every_dealt_pair_is_a_power_of_g(self):
        from repro.crypto.group import DEFAULT_GROUP
        from repro.testbed.dealer_cache import _dealt_logs

        for scheme in ALL_SCHEMES:
            pairs = _dealt_logs(scheme, deal_scheme(scheme, 7, 5))
            assert len(pairs) == (7 if scheme == SCHEME_KEYRING else 8)
            assert all(DEFAULT_GROUP.power_of_g(exponent) == element
                       for element, exponent in pairs)

    def test_honest_epoch_on_disk_loaded_keys_makes_no_powm(self, tmp_path,
                                                             monkeypatch):
        from repro.crypto import backend, group as crypto_group
        from repro.protocols.base import PROTOCOL_NAMES
        from repro.testbed import dealer_cache
        from repro.testbed.harness import run_consensus
        from repro.testbed.scenarios import Scenario

        def epochs() -> None:
            for protocol in PROTOCOL_NAMES:
                assert run_consensus(protocol, Scenario.single_hop(4),
                                     seed=2024).decided

        monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE",
                            DealerCache(directory=str(tmp_path)))
        epochs()  # deals every scheme into the directory
        reader = DealerCache(directory=str(tmp_path))
        monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE", reader)
        monkeypatch.setattr(crypto_group, "_GENERATORS", {})  # a new process
        calls = [0]
        powm = backend.powm

        def counting(*args):
            calls[0] += 1
            return powm(*args)

        monkeypatch.setattr(backend, "powm", counting)
        epochs()
        assert reader.misses == 0 and reader.hits > 0
        assert calls[0] == 0
