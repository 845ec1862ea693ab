"""Seed-determinism regression tests for every harness entry point.

The campaign engine's replayability contract rests on each entry point being
a pure function of (arguments, seed): running twice with the same seed must
yield *identical* result dataclasses -- including the block digest, the byte
counters and the simulator event count.  Dataclass equality compares every
field, so any nondeterminism (an unseeded RNG, iteration over an unordered
set, wall-clock leakage) fails these tests.
"""

import pytest

from repro.testbed.harness import (
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec

SMALL = dict(workload_spec=WorkloadSpec(batch_size=3, transaction_bytes=32))


class TestSeedDeterminism:
    @pytest.mark.parametrize("protocol", ["honeybadger-sc", "beat", "dumbo-sc"])
    def test_run_consensus_replays_identically(self, protocol):
        first = run_consensus(protocol, Scenario.single_hop(4), seed=31, **SMALL)
        second = run_consensus(protocol, Scenario.single_hop(4), seed=31, **SMALL)
        assert first == second
        assert first.block_digest == second.block_digest
        assert first.bytes_sent == second.bytes_sent
        assert first.sim_events == second.sim_events
        assert first.per_node_digest == second.per_node_digest

    def test_run_multihop_consensus_replays_identically(self):
        first = run_multihop_consensus("beat", Scenario.multi_hop(4, 4),
                                       seed=32, **SMALL)
        second = run_multihop_consensus("beat", Scenario.multi_hop(4, 4),
                                        seed=32, **SMALL)
        assert first == second
        assert first.block_digest == second.block_digest
        assert first.per_leader_digest == second.per_leader_digest
        assert first.bytes_sent == second.bytes_sent

    def test_run_broadcast_experiment_replays_identically(self):
        first = run_broadcast_experiment("rbc", parallelism=2, num_nodes=4,
                                         seed=33)
        second = run_broadcast_experiment("rbc", parallelism=2, num_nodes=4,
                                          seed=33)
        assert first == second
        assert first.bytes_sent == second.bytes_sent

    def test_run_aba_experiment_replays_identically(self):
        first = run_aba_experiment("cp", parallel_instances=2, num_nodes=4,
                                   seed=34)
        second = run_aba_experiment("cp", parallel_instances=2, num_nodes=4,
                                    seed=34)
        assert first == second
        assert first.rounds_executed == second.rounds_executed

    def test_different_seeds_differ(self):
        # Guard against the trivial way to pass the tests above: results that
        # ignore the seed entirely.
        a = run_consensus("beat", Scenario.single_hop(4), seed=35, **SMALL)
        b = run_consensus("beat", Scenario.single_hop(4), seed=36, **SMALL)
        assert a != b
