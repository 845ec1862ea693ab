"""The pure tier's recurring-base exponentiation cache.

``PureBigint.powm`` promotes a ``(base, modulus)`` to a fixed-base table on
its second sighting and evicts tables LRU under one byte budget.  Three
properties are pinned here:

* **bit identity** -- ``powm`` equals builtin ``pow`` at every stage of a
  base's life (first sighting, promotion, steady state, after eviction and
  re-promotion), for edge bases, edge exponents and toy moduli;
* **bounded memory** -- table bytes never exceed the budget and the
  first-sighting memo never exceeds its bound, however many distinct bases
  arrive and however many fresh-seed runs follow one another;
* **selection by reuse** -- one-shot bases never get a table, recurring ones
  do, and the steady state really is the table path.

The tests build their own ``PureBigint`` so the process-wide instance (and
therefore every other test) is untouched; they run in both legs of the CI
backend matrix because the class under test is the pure tier itself.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend
from repro.crypto.backend import pure
from repro.crypto.backend.pure import PureBigint
from repro.crypto.fastpath import CompactBaseTable
from repro.crypto.group import DEFAULT_GROUP, Group

P, Q, G = DEFAULT_GROUP.p, DEFAULT_GROUP.q, DEFAULT_GROUP.g
TOY_MODULI = (1, 2, 3, 23, 2**16 + 1, 2**61 - 1)


def _install_fresh_pure_tier(monkeypatch) -> PureBigint:
    """Make a new, empty pure tier the active big-integer backend."""
    tier = PureBigint()
    monkeypatch.setattr(backend, "_PURE_BIGINT", tier)
    monkeypatch.setattr(backend, "_bigint", tier)
    return tier


def _edge_bases(modulus: int) -> list[int]:
    return [0, 1, modulus - 1, modulus, modulus + 1, 2 * modulus + 3]


def _edge_exponents(modulus: int) -> list[int]:
    return [0, 1, 2, 15, 16, 2**16 - 1, 2**16, modulus - 1, modulus,
            2 * modulus + 1, 2**300 + 5]


class TestCompactBaseTable:
    @given(base=st.integers(min_value=0, max_value=2 * P),
           exponent=st.integers(min_value=0, max_value=2**256 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_pow_on_the_default_group(self, base, exponent):
        assert CompactBaseTable(base, P).pow(exponent) == pow(base, exponent, P)

    def test_edges_and_toy_moduli(self):
        for modulus in TOY_MODULI + (P,):
            for base in _edge_bases(modulus):
                table = CompactBaseTable(base, modulus)
                for exponent in _edge_exponents(modulus):
                    if exponent < table.limit:
                        assert table.pow(exponent) == \
                            pow(base, exponent, modulus), \
                            (base, exponent, modulus)

    def test_limit_covers_every_exponent_below_the_modulus(self):
        for modulus in TOY_MODULI + (P,):
            assert CompactBaseTable(3, modulus).limit >= modulus


class TestBitIdentityAtEveryStage:
    def test_edges_and_toy_moduli_through_promotion(self):
        tier = PureBigint()
        for modulus in TOY_MODULI + (P,):
            for base in _edge_bases(modulus):
                for exponent in _edge_exponents(modulus):
                    # sighting 1 = pow, 2 = promotion, 3+ = the table
                    for _ in range(3):
                        assert tier.powm(base, exponent, modulus) == \
                            pow(base, exponent, modulus), \
                            (base, exponent, modulus)
        assert tier.table_count > 0

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_random_interleavings_match_pow(self, seed):
        rnd = random.Random(seed)
        tier = PureBigint()
        bases = [rnd.randrange(2 * P) for _ in range(6)]
        for _ in range(60):
            base = rnd.choice(bases)
            exponent = rnd.randrange(Q)
            assert tier.powm(base, exponent, P) == pow(base, exponent, P)

    def test_eviction_and_re_promotion(self, monkeypatch):
        one_table = CompactBaseTable.estimated_bytes(P)
        monkeypatch.setattr(pure, "_TABLE_BUDGET_BYTES", 2 * one_table)
        tier = PureBigint()
        rnd = random.Random(7)
        first, *others = [pow(G, rnd.randrange(1, Q), P) for _ in range(4)]

        def check(base):
            return [tier.powm(base, e, P) == pow(base, e, P)
                    for e in (0, 1, rnd.randrange(Q), Q - 1)]

        assert all(check(first))
        assert (first, P) in tier._tables
        for base in others:  # three more tables through a two-table budget
            assert all(check(base))
        assert (first, P) not in tier._tables
        assert tier.table_count == 2
        assert all(check(first))  # forgotten -> pow -> promoted again
        assert (first, P) in tier._tables
        assert tier.table_bytes <= 2 * one_table

    def test_group_exp_goes_through_the_cache(self, monkeypatch):
        tier = _install_fresh_pure_tier(monkeypatch)
        base = pow(G, 424242, P)
        for exponent in (0, 1, Q - 1, Q, Q + 7, 3 * Q + 1):
            for _ in range(3):
                assert DEFAULT_GROUP.exp(base, exponent) == \
                    pow(base, exponent % Q, P)
        toy = Group(p=23, q=11, g=2)
        for exponent in range(25):
            assert toy.exp(2, exponent) == pow(2, exponent % 11, 23)
        assert (base, P) in tier._tables and (2, 23) in tier._tables

    def test_negative_exponent_rejected_at_every_stage(self):
        tier = PureBigint()
        for _ in range(3):
            with pytest.raises(ValueError):
                tier.powm(3, -1, 7)
            tier.powm(3, 2, 7)

    def test_non_positive_modulus_behaves_like_pow(self):
        tier = PureBigint()
        for _ in range(3):
            assert tier.powm(3, 2, -7) == pow(3, 2, -7)
            with pytest.raises(ValueError):
                tier.powm(3, 2, 0)
        assert tier.table_count == 0


class TestSelectionByReuse:
    def test_one_shot_bases_never_get_a_table(self):
        tier = PureBigint()
        rnd = random.Random(3)
        for _ in range(500):
            tier.powm(rnd.randrange(P), rnd.randrange(Q), P)
        assert tier.table_count == 0 and tier.table_bytes == 0
        assert len(tier._seen_once) == pure._SEEN_ONCE_MAX

    def test_second_sighting_promotes(self):
        tier = PureBigint()
        base = pow(G, 99, P)
        tier.powm(base, 5, P)
        assert tier.table_count == 0
        tier.powm(base, 6, P)
        assert tier.table_count == 1
        assert (base, P) not in tier._seen_once

    def test_steady_state_is_the_table_path(self, monkeypatch):
        tier = PureBigint()
        base = pow(G, 77, P)
        tier.powm(base, 5, P)
        tier.powm(base, 6, P)
        calls = []
        table = tier._tables[(base, P)]
        monkeypatch.setattr(
            CompactBaseTable, "pow",
            lambda self, exponent: calls.append(self) or 1)
        tier.powm(base, 7, P)
        assert calls == [table]

    def test_exponent_beyond_the_table_falls_back_to_pow(self):
        tier = PureBigint()
        huge = 2**300 + 12345
        for _ in range(3):
            assert tier.powm(5, huge, P) == pow(5, huge, P)

    def test_modulus_too_wide_for_the_budget_stays_on_pow(self):
        tier = PureBigint()
        modulus = 2**40000 + 1
        assert CompactBaseTable.estimated_bytes(modulus) > \
            pure._TABLE_BUDGET_BYTES
        for _ in range(3):
            assert tier.powm(3, 5, modulus) == 243
        assert tier.table_count == 0


class TestBoundedMemory:
    def test_ten_thousand_distinct_bases_stay_inside_the_budget(self):
        # a 61-bit modulus keeps 10k table builds inside the tier-1 budget;
        # its tables are ~1.7 KB, so the budget is hit after ~1.2k of them
        tier = PureBigint()
        modulus = 2**61 - 1
        high_water = 0
        for base in range(2, 10_002):
            for exponent in (base, base + 1):  # second sighting promotes
                assert tier.powm(base, exponent, modulus) == \
                    pow(base, exponent, modulus)
            high_water = max(high_water, tier.table_bytes)
        assert 0 < high_water <= pure._TABLE_BUDGET_BYTES
        assert tier.table_count < 10_000  # it did evict
        assert tier.table_bytes == \
            tier.table_count * CompactBaseTable.estimated_bytes(modulus)
        assert len(tier._seen_once) <= pure._SEEN_ONCE_MAX

    def test_default_group_tables_stay_inside_the_budget(self):
        tier = PureBigint()
        rnd = random.Random(11)
        for _ in range(200):
            base = rnd.randrange(P)
            for _ in range(2):
                tier.powm(base, rnd.randrange(Q), P)
            assert tier.table_bytes <= pure._TABLE_BUDGET_BYTES
        assert tier.table_count == \
            pure._TABLE_BUDGET_BYTES // CompactBaseTable.estimated_bytes(P)

    def test_size_estimate_tracks_the_real_table(self):
        import sys
        table = CompactBaseTable(pow(G, 5, P), P)
        real = sum(sys.getsizeof(row) + sum(sys.getsizeof(x) for x in row[1:])
                   for row in table._rows)
        assert real <= CompactBaseTable.estimated_bytes(P) <= 1.1 * real

    def test_fresh_seed_runs_do_not_accumulate(self, monkeypatch):
        """Every seed deals fresh keys; six runs on six seeds must leave the
        cache no larger than it was allowed to get in one."""
        from repro.testbed.harness import run_consensus
        from repro.testbed.scenarios import Scenario

        tier = _install_fresh_pure_tier(monkeypatch)
        scenario = Scenario.single_hop(4)
        assert run_consensus("honeybadger-sc", scenario, seed=900).decided
        after_one = tier.table_bytes
        assert 0 < after_one <= pure._TABLE_BUDGET_BYTES
        monkeypatch.setattr(pure, "_TABLE_BUDGET_BYTES", after_one)
        for seed in range(901, 906):
            assert run_consensus("honeybadger-sc", scenario, seed=seed).decided
            assert tier.table_bytes <= after_one
            assert len(tier._seen_once) <= pure._SEEN_ONCE_MAX
