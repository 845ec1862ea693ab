"""Memo scopes: a finished run takes its run-scoped crypto memos with it.

``repro.crypto`` memoises pure functions.  A memo whose entries come from
one run's keys or randomness (known logs, combined powers, membership and
proof verdicts) is *run-scoped*: ``Deployment.close()`` empties it through
``repro.crypto.group.forget_run``, since a later run at a fresh seed never
meets those entries again.  A memo keyed by public parameters any run can
reuse (hash points, Lagrange weights, the reconstructed master key, the
fixed-base tables, the dealer cache) is process-scoped and survives.
Pinned here:

* the registry names exactly the run-scoped caches;
* every entry point fills the run-scoped memos and leaves them empty when
  it returns, while the process-scoped ones keep their entries;
* a dealer-cache hit in a later run teaches its keys' logs again, so a
  second honest epoch at the same seed makes no backend ``powm``.
"""

import pytest

from repro.crypto import digital_sig, threshold_sig
from repro.crypto import group as group_module
from repro.crypto.group import DEFAULT_GROUP
from repro.testbed import dealer_cache, harness
from repro.testbed.harness import (
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec, WorkloadSpec

from tests.crypto.test_known_logs import powm_calls  # noqa: F401 (fixture)

SMALL = dict(workload_spec=WorkloadSpec(batch_size=3, transaction_bytes=32))
STREAM = StreamingSpec(epochs=3, batch_size=3, warmup=12, arrival=ArrivalSpec(
    rate_tps=4.0, transaction_bytes=32, max_mempool=512))

#: entry point -> (run, whether it combines threshold shares)
RUNS = {
    "consensus/honeybadger-sc": (lambda: run_consensus(
        "honeybadger-sc", Scenario.single_hop(4), seed=3, **SMALL), True),
    "consensus/beat": (lambda: run_consensus(
        "beat", Scenario.single_hop(4), seed=3, **SMALL), True),
    "consensus/dumbo-lc": (lambda: run_consensus(
        "dumbo-lc", Scenario.single_hop(4), seed=3, **SMALL), True),
    "multihop": (lambda: run_multihop_consensus(
        "honeybadger-sc", Scenario.multi_hop(2, 4), seed=3, **SMALL), True),
    "multihop/sharded": (lambda: run_multihop_consensus(
        "honeybadger-sc", Scenario.multi_hop(2, 4), seed=3, shards=2,
        shard_workers=1, **SMALL), True),
    "broadcast": (lambda: run_broadcast_experiment(
        "rbc", parallelism=2, num_nodes=4, seed=3), False),
    "aba": (lambda: run_aba_experiment(
        "sc", parallel_instances=2, num_nodes=4, seed=3), True),
    "stream": (lambda: run_streaming_consensus(
        "honeybadger-sc", Scenario.single_hop(4), STREAM, seed=3), True),
}


def _generator():
    return group_module._generator(DEFAULT_GROUP.p, DEFAULT_GROUP.q,
                                   DEFAULT_GROUP.g)


def _run_scoped_sizes() -> dict:
    generator = _generator()
    return {"logs": len(generator.logs), "powers": len(generator.powers),
            **{cached.__name__: cached.cache_info().currsize
               for cached in group_module._RUN_SCOPED}}


@pytest.fixture()
def fresh_process(monkeypatch):
    """Empty process-scoped memos and dealer cache, so what a run fills is
    what this test sees."""
    monkeypatch.setattr(group_module, "_GENERATORS", {})
    monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE",
                        dealer_cache.DealerCache())
    group_module._hash_to_group_cached.cache_clear()
    group_module._combine_weights.cache_clear()


def test_the_registry_names_exactly_the_run_scoped_caches():
    assert set(group_module._RUN_SCOPED) == {
        group_module._is_member_cached,
        group_module._verify_dlog_equality_cached,
        digital_sig._verify_schnorr_cached,
    }
    process_scoped = (group_module._hash_to_group_cached,
                      group_module._combine_weights,
                      threshold_sig._reconstructed_master_key)
    assert not set(process_scoped) & set(group_module._RUN_SCOPED)


def test_forget_run_keeps_the_fixed_base_table(fresh_process, powm_calls):
    generator = _generator()
    table = generator.table
    point = DEFAULT_GROUP.hash_to_group(b"kept")
    assert generator.logs
    group_module.forget_run()
    assert not generator.logs and not generator.powers
    assert _generator() is generator and generator.table is table
    # the hash point is memoised process-wide and re-learns its log
    assert DEFAULT_GROUP.hash_to_group(b"kept") == point
    assert DEFAULT_GROUP.exp(point, 12345) == pow(point, 12345,
                                                  DEFAULT_GROUP.p)
    assert powm_calls == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_leaves_no_run_scoped_memo(name, fresh_process,
                                                  monkeypatch):
    at_close = []
    forget_run = harness.forget_run

    def recording():
        at_close.append(_run_scoped_sizes())
        forget_run()

    monkeypatch.setattr(harness, "forget_run", recording)
    run, combines = RUNS[name]
    run()
    # the run filled its memos (in-process shards close one deployment each;
    # the first close forgets for all)
    assert at_close and at_close[0]["logs"]
    assert not any(_run_scoped_sizes().values())
    # the process-scoped memos keep what the run taught them
    assert group_module._GENERATORS
    assert dealer_cache.DEFAULT_DEALER_CACHE._memory
    if combines:
        assert group_module._hash_to_group_cached.cache_info().currsize
        assert group_module._combine_weights.cache_info().currsize


def test_a_cached_key_run_needs_no_backend(fresh_process, powm_calls):
    """The second epoch at a seed hits the dealer cache after the first
    run's close forgot its keys' logs; the hit teaches them again."""
    cache = dealer_cache.DEFAULT_DEALER_CACHE
    assert run_consensus("honeybadger-sc", Scenario.single_hop(4),
                         seed=8300).decided
    hits = cache.hits
    powm_calls.clear()
    assert run_consensus("honeybadger-sc", Scenario.single_hop(4),
                         seed=8300).decided
    assert cache.hits > hits
    assert powm_calls == []
