"""The sharded determinism contract, property-tested.

A sharded multi-hop run is a pure function of ``(protocol, scenario,
workload, batched, seed, shards)``: the barrier schedule and every
shard-local execution are independent of how many worker processes run
them.  These tests sweep {protocol x cluster grid x seed x workers in
{1, 2, 4}} and assert full-result bit-identity -- digests, latencies, byte
counts AND sim_events -- between worker counts, plus rerun reproducibility.

Why the reference is the one-worker *sharded* run and not the classic
single-heap path: the classic simulator interleaves every node's RNG draws
on one global stream (adversary jitter per delivery, resend-timer jitter at
construction), so the draw *order* -- and therefore individual jitter values
-- necessarily differs once heaps are split per shard.  Splitting cannot
reproduce the classic stream without serializing all shards through one RNG,
which is exactly what sharding removes.  The classic path itself is pinned
byte-stable by the pre-existing seed-determinism tests; the sharded engine
pins its own reference here.  Where the decided *content* is timing-robust
(fault-free small grids), the sharded block digest does coincide with the
classic one, and that is asserted too.
"""

import dataclasses

import pytest

from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import run_multihop_consensus
from repro.testbed.invariants import RunObserver, check_all
from repro.testbed.scenarios import Scenario
from repro.testbed.sharding import merge_traces, partition_clusters
from repro.net.shard import ShardSyncError
from repro.net.trace import NetworkTrace


def _run(protocol, scenario, seed, shards, workers):
    result = run_multihop_consensus(protocol, scenario, seed=seed,
                                    shards=shards, shard_workers=workers)
    return dataclasses.asdict(result)


# ---------------------------------------------------------------------------
# the property sweep: protocol x grid x seed x workers
# ---------------------------------------------------------------------------

SWEEP = [(protocol, seed)
         for protocol in ("honeybadger-sc", "beat")
         for seed in (0, 1, 2)]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("protocol,seed", SWEEP)
    def test_workers_1_2_4_bit_identical(self, protocol, seed):
        scenario = Scenario.scale_multi_hop(2, 4)
        reference = _run(protocol, scenario, seed, shards=2, workers=1)
        assert reference["decided"] is True
        # an empty decided block (possible when the ACS subset carries no
        # transactions) legitimately has no digest
        if reference["committed_transactions"]:
            assert reference["block_digest"]
        for workers in (2, 4):
            assert _run(protocol, scenario, seed, shards=2,
                        workers=workers) == reference

    def test_uneven_partition_is_worker_invariant(self):
        # 3 clusters over 2 shards: blocks of 2 and 1
        scenario = Scenario.scale_multi_hop(3, 4)
        reference = _run("honeybadger-sc", scenario, 0, shards=2, workers=1)
        assert reference["decided"] is True
        assert _run("honeybadger-sc", scenario, 0, shards=2,
                    workers=2) == reference

    def test_one_shard_per_cluster_at_workers_4(self):
        scenario = Scenario.scale_multi_hop(4, 4)
        reference = _run("beat", scenario, 1, shards=4, workers=1)
        assert reference["decided"] is True
        assert _run("beat", scenario, 1, shards=4, workers=4) == reference

    def test_rerun_is_bit_identical(self):
        scenario = Scenario.scale_multi_hop(2, 4)
        first = _run("honeybadger-sc", scenario, 3, shards=2, workers=1)
        second = _run("honeybadger-sc", scenario, 3, shards=2, workers=1)
        assert first == second

    def test_different_seeds_differ(self):
        # the sweep would be vacuous if the result ignored the seed
        scenario = Scenario.scale_multi_hop(2, 4)
        runs = {
            _run("honeybadger-sc", scenario, seed, shards=2, workers=1)["sim_events"]
            for seed in (0, 1, 2)}
        assert len(runs) > 1


class TestAgainstClassic:
    def test_fault_free_digest_matches_classic(self):
        # Timing streams differ (see module docstring) but on a fault-free
        # small grid every cluster's contribution commits, so the decided
        # content -- and its digest -- coincides with the classic path.
        scenario = Scenario.scale_multi_hop(2, 4)
        classic = run_multihop_consensus("honeybadger-sc", scenario, seed=0)
        sharded = run_multihop_consensus("honeybadger-sc", scenario, seed=0,
                                         shards=2)
        assert classic.decided and sharded.decided
        assert sharded.block_digest == classic.block_digest
        assert sharded.committed_transactions == classic.committed_transactions

    def test_classic_path_signature_unchanged(self):
        # shards=None must stay the classic single-heap code path
        scenario = Scenario.scale_multi_hop(2, 4)
        result = run_multihop_consensus("honeybadger-sc", scenario, seed=0)
        assert result.sim_events > 0


class TestShardedWithFaults:
    def test_crash_fault_is_worker_invariant_and_live(self):
        # f crash faults per cluster (non-leaders): the sharded run must
        # still decide, and crash handling (a node object local to one
        # shard) must not depend on the worker count.
        scenario = Scenario.scale_multi_hop(2, 4)
        victims = []
        for cluster in scenario.topology.clusters:
            pool = [node_id for node_id in cluster.node_ids]
            victims.append(sorted(pool, reverse=True)[0])
        scenario = scenario.with_byzantine(ByzantineSpec.crash_nodes(victims))
        reference = _run("honeybadger-sc", scenario, 0, shards=2, workers=1)
        assert reference["decided"] is True
        assert _run("honeybadger-sc", scenario, 0, shards=2,
                    workers=2) == reference

    def test_invariants_hold_on_sharded_run(self):
        scenario = Scenario.scale_multi_hop(2, 4)
        observer = RunObserver()
        result = run_multihop_consensus("honeybadger-sc", scenario, seed=0,
                                        shards=2, observer=observer)
        verdicts = check_all(observer, result, scenario.timeout_s,
                             expect_decision=True)
        assert all(verdict.ok for verdict in verdicts), verdicts

    def test_observer_records_match_classic_shape(self):
        scenario = Scenario.scale_multi_hop(2, 4)
        classic_observer, sharded_observer = RunObserver(), RunObserver()
        run_multihop_consensus("honeybadger-sc", scenario, seed=0,
                               observer=classic_observer)
        run_multihop_consensus("honeybadger-sc", scenario, seed=0, shards=2,
                               observer=sharded_observer)
        # same proposers in the same domains, in the same order
        assert [(record.node_id, record.domain, record.kind)
                for record in sharded_observer.proposals] == \
               [(record.node_id, record.domain, record.kind)
                for record in classic_observer.proposals]
        # same deciders in the same domains, in the same order
        assert [(record.node_id, record.domain)
                for record in sharded_observer.decisions] == \
               [(record.node_id, record.domain)
                for record in classic_observer.decisions]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

class TestPartitioning:
    def test_contiguous_blocks(self):
        assert partition_clusters(4, 2) == [[0, 1], [2, 3]]
        assert partition_clusters(5, 2) == [[0, 1, 2], [3, 4]]
        assert partition_clusters(3, 3) == [[0], [1], [2]]

    def test_invalid_counts_rejected(self):
        with pytest.raises(ShardSyncError):
            partition_clusters(4, 0)
        with pytest.raises(ShardSyncError):
            partition_clusters(2, 3)

    def test_shards_knob_validates_against_topology(self):
        scenario = Scenario.scale_multi_hop(2, 4)
        with pytest.raises(ShardSyncError):
            run_multihop_consensus("honeybadger-sc", scenario, shards=3)


class TestMergeTraces:
    def test_sums_overlapping_channels_and_disjoint_nodes(self):
        first, second = NetworkTrace(), NetworkTrace()
        first.record_transmission("global", 100, 0.1)
        first.record_channel_access(1, 2, 100)
        second.record_delivery("global")
        second.record_transmission("global", 50, 0.05)
        second.record_channel_access(5, 1, 50)
        merged = merge_traces([first, second])
        assert merged.channels["global"].transmissions == 2
        assert merged.channels["global"].delivered_frames == 1
        assert merged.total_bytes_sent == 150
        assert merged.total_channel_accesses == 3
