"""Integration tests: full consensus runs on the simulated wireless testbed.

These are the end-to-end checks behind the paper's headline claims: every
protocol decides on the wireless substrate, honest nodes agree, Byzantine
faults up to f are tolerated, ConsensusBatcher beats the unbatched baseline,
and runs are reproducible for a fixed seed.
"""

import pytest

from repro.net.adversary import LinkFaultSpec, PartitionSpec
from repro.protocols.base import ConsensusConfig
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import (
    DeploymentError,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.invariants import RunObserver, check_all
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec


SMALL_SPEC = WorkloadSpec(batch_size=3, transaction_bytes=32)
SMALL = dict(workload_spec=SMALL_SPEC)


class TestSingleHopConsensus:
    @pytest.mark.parametrize("protocol", ["honeybadger-sc", "beat", "dumbo-sc"])
    def test_protocol_decides_on_wireless_substrate(self, protocol):
        result = run_consensus(protocol, Scenario.single_hop(4), batched=True,
                               seed=11, **SMALL)
        assert result.decided
        assert result.latency_s > 0
        assert result.committed_transactions >= 3 * SMALL_SPEC.batch_size
        assert result.throughput_tpm > 0

    def test_local_coin_variants_decide(self):
        for protocol in ("honeybadger-lc", "dumbo-lc"):
            result = run_consensus(protocol, Scenario.single_hop(4), batched=True,
                                   seed=12, **SMALL)
            assert result.decided, protocol

    def test_batching_improves_latency_and_throughput(self):
        batched = run_consensus("honeybadger-sc", Scenario.single_hop(4),
                                batched=True, seed=13, **SMALL)
        baseline = run_consensus("honeybadger-sc", Scenario.single_hop(4),
                                 batched=False, seed=13, **SMALL)
        assert batched.decided and baseline.decided
        assert batched.latency_s < baseline.latency_s
        assert batched.throughput_tpm > baseline.throughput_tpm
        assert batched.channel_accesses < baseline.channel_accesses

    def test_tolerates_crashed_node(self):
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec.crash_nodes([3]))
        result = run_consensus("honeybadger-sc", scenario, batched=True, seed=14,
                               **SMALL)
        assert result.decided
        # the crashed node contributes nothing, but at least N - f proposals land
        assert result.committed_transactions >= 2 * SMALL_SPEC.batch_size

    def test_tolerates_garbage_proposer(self):
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={2: "garbage-proposer"}))
        result = run_consensus("beat", scenario, batched=True, seed=15, **SMALL)
        assert result.decided

    def test_tolerates_slow_links_adversary(self):
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={1: "slow-links"}))
        result = run_consensus("honeybadger-sc", scenario, batched=True, seed=16,
                               **SMALL)
        assert result.decided

    def test_runs_are_reproducible_for_fixed_seed(self):
        a = run_consensus("beat", Scenario.single_hop(4), batched=True, seed=17,
                          **SMALL)
        b = run_consensus("beat", Scenario.single_hop(4), batched=True, seed=17,
                          **SMALL)
        assert a.latency_s == pytest.approx(b.latency_s)
        assert a.block_digest == b.block_digest
        assert a.channel_accesses == b.channel_accesses

    def test_different_seeds_change_schedule(self):
        a = run_consensus("beat", Scenario.single_hop(4), batched=True, seed=18,
                          **SMALL)
        b = run_consensus("beat", Scenario.single_hop(4), batched=True, seed=19,
                          **SMALL)
        assert a.decided and b.decided
        assert a.latency_s != pytest.approx(b.latency_s)

    def test_lighter_curves_do_not_hurt(self):
        light = run_consensus("honeybadger-sc", Scenario.single_hop(4),
                              batched=True, seed=20, **SMALL)
        heavy = run_consensus(
            "honeybadger-sc",
            Scenario.single_hop(4).with_curves("secp256r1", "FP512BN"),
            batched=True, seed=20, **SMALL)
        assert light.decided and heavy.decided
        assert light.latency_s < heavy.latency_s

    def test_epoch_config_respected(self):
        result = run_consensus("honeybadger-sc", Scenario.single_hop(4),
                               batched=True, seed=21,
                               config=ConsensusConfig(epoch=3), **SMALL)
        assert result.decided

    def test_multihop_scenario_rejected(self):
        with pytest.raises(DeploymentError):
            run_consensus("beat", Scenario.multi_hop(), **SMALL)

    def test_tolerates_equivocating_proposer(self):
        observer = RunObserver()
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={2: "equivocating-proposer"}))
        result = run_consensus("honeybadger-sc", scenario, batched=True,
                               seed=41, observer=observer, **SMALL)
        assert result.decided
        # agreement despite the conflicting proposals
        assert len(set(result.per_node_digest.values())) == 1
        # the observer saw both the real and the equivocated batch
        kinds = {proposal.kind for proposal in observer.proposals}
        assert "equivocation" in kinds
        assert all(verdict.ok for verdict in check_all(
            observer, result, scenario.timeout_s))

    def test_tolerates_lossy_links(self):
        scenario = Scenario.single_hop(4).with_link_faults(
            LinkFaultSpec(drop_rate=0.05, duplicate_rate=0.05,
                          reorder_jitter_s=0.2))
        result = run_consensus("beat", scenario, batched=True, seed=42, **SMALL)
        assert result.decided

    def test_recovers_after_partition_heals(self):
        scenario = Scenario.single_hop(4).with_partition(
            PartitionSpec(groups=(frozenset({0, 1}), frozenset({2, 3})),
                          heal_s=25.0))
        result = run_consensus("beat", scenario, batched=True, seed=43, **SMALL)
        assert result.decided
        assert result.latency_s > 25.0  # no decision while partitioned

    def test_no_decision_after_quorum_loss(self):
        observer = RunObserver()
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec.crash_nodes([2, 3])).replace(timeout_s=60.0)
        result = run_consensus("beat", scenario, batched=True, seed=44,
                               observer=observer, **SMALL)
        assert not result.decided
        assert not observer.decisions
        assert result.per_node_digest == {}

    def test_workload_spec_flavors_run(self):
        spec = WorkloadSpec(batch_size=3, transaction_bytes=48,
                            flavor="telemetry")
        result = run_consensus("beat", Scenario.single_hop(4), seed=45,
                               workload_spec=spec)
        assert result.decided
        assert result.committed_transactions >= 3 * 3


class TestMultiHopConsensus:
    def test_two_phase_consensus_decides(self):
        result = run_multihop_consensus("honeybadger-sc", Scenario.multi_hop(4, 4),
                                        batched=True, seed=22, **SMALL)
        assert result.decided
        assert result.num_clusters == 4
        assert len(result.local_latencies_s) == 4
        assert result.latency_s > result.slowest_local_latency_s
        assert result.committed_transactions > 0

    def test_single_hop_scenario_rejected(self):
        with pytest.raises(DeploymentError):
            run_multihop_consensus("beat", Scenario.single_hop(4), **SMALL)

    def test_observer_collects_domains_and_digests(self):
        observer = RunObserver()
        result = run_multihop_consensus("beat", Scenario.multi_hop(4, 4),
                                        batched=True, seed=46,
                                        observer=observer, **SMALL)
        assert result.decided
        # every honest leader decided the same global block
        assert len(result.per_leader_digest) == 4
        assert len(set(result.per_leader_digest.values())) == 1
        assert result.block_digest in result.per_leader_digest.values()
        domains = set(observer.domains())
        assert "global" in domains
        assert {("cluster", index) for index in range(4)} <= domains
        assert all(verdict.ok for verdict in check_all(
            observer, result, Scenario.multi_hop(4, 4).timeout_s))
