"""Tests for workload generation, Byzantine specs, scenarios and reporting."""

import pytest

from repro.net.radio import LORA_FAST
from repro.testbed.byzantine import BYZANTINE_STRATEGIES, ByzantineSpec
from repro.testbed.metrics import ConsensusRunResult
from repro.testbed.reporting import format_table, improvement_percent, increase_percent
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import TransactionWorkload, WorkloadSpec


class TestWorkload:
    def test_batch_shape(self):
        workload = TransactionWorkload(WorkloadSpec(batch_size=5,
                                                    transaction_bytes=48), seed=1)
        batch = workload.batch_for(node_id=2)
        assert len(batch) == 5
        assert all(len(tx) == 48 for tx in batch)

    def test_deterministic_per_seed(self):
        a = TransactionWorkload(seed=7).batch_for(0)
        b = TransactionWorkload(seed=7).batch_for(0)
        c = TransactionWorkload(seed=8).batch_for(0)
        assert a == b
        assert a != c

    def test_distinct_across_nodes_and_epochs(self):
        workload = TransactionWorkload(seed=1)
        assert workload.batch_for(0, epoch=0) != workload.batch_for(1, epoch=0)
        assert workload.batch_for(0, epoch=0) != workload.batch_for(0, epoch=1)

    def test_batches_for_all_nodes(self):
        workload = TransactionWorkload(WorkloadSpec(batch_size=2), seed=3)
        batches = [workload.batch_for(node_id) for node_id in range(4)]
        assert len(batches) == 4
        assert all(len(batch) == 2 for batch in batches)

    def test_flavored_workloads(self):
        tasks = TransactionWorkload(WorkloadSpec(flavor="task-allocation",
                                                 transaction_bytes=96), seed=1)
        telemetry = TransactionWorkload(WorkloadSpec(flavor="telemetry",
                                                     transaction_bytes=96), seed=1)
        assert tasks.batch_for(0)[0].startswith(b"task|robot=0")
        assert telemetry.batch_for(0)[0].startswith(b"telemetry|node=0")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(batch_size=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(transaction_bytes=4)
        with pytest.raises(ValueError):
            WorkloadSpec(flavor="bogus")


class TestByzantineSpec:
    def test_strategies_catalogue(self):
        assert "crash" in BYZANTINE_STRATEGIES
        assert "garbage-proposer" in BYZANTINE_STRATEGIES

    def test_crash_nodes_constructor(self):
        spec = ByzantineSpec.crash_nodes([1, 3])
        assert spec.byzantine_ids == {1, 3}
        assert spec.is_byzantine(1)
        assert not spec.is_byzantine(0)
        assert spec.assignments == {1: "crash", 3: "crash"}

    def test_propose_behaviour(self):
        spec = ByzantineSpec(assignments={0: "crash", 1: "mute-proposer",
                                          2: "garbage-proposer"})
        assert not spec.proposes(0)
        assert not spec.proposes(1)
        assert spec.proposes(2)
        assert spec.proposal_is_garbage(2)
        assert not spec.proposal_is_garbage(1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ByzantineSpec(assignments={0: "teleport"})

    def test_equivocation_strategy(self):
        spec = ByzantineSpec(assignments={0: "equivocating-proposer",
                                          1: "slow-links"})
        assert spec.equivocates(0)
        assert not spec.equivocates(1)
        assert spec.proposes(0)  # equivocators do propose (twice)
        assert spec.nodes_with("slow-links") == [1]
        assert spec.nodes_with("crash") == []

    def test_network_fault_strategies_stay_honest(self):
        # slow-links attacks the network, not the node: the node runs
        # honest code and must stay in the conformance evidence set.
        spec = ByzantineSpec(assignments={0: "slow-links", 2: "crash"})
        assert spec.byzantine_ids == {2}
        assert spec.is_byzantine(0)  # still listed as under attack

    def test_none_spec(self):
        assert ByzantineSpec.none().byzantine_ids == set()


class TestScenario:
    def test_single_hop_defaults(self):
        scenario = Scenario.single_hop()
        assert scenario.num_nodes == 4
        assert not scenario.is_multi_hop
        assert scenario.ec_curve == "secp160r1"
        assert scenario.threshold_curve == "BN158"

    def test_multi_hop_defaults(self):
        scenario = Scenario.multi_hop()
        assert scenario.num_nodes == 16
        assert scenario.is_multi_hop
        assert scenario.topology.num_clusters == 4

    def test_with_helpers(self):
        scenario = Scenario.single_hop(7)
        modified = scenario.with_curves("secp192r1", "BN254")
        assert modified.ec_curve == "secp192r1"
        assert modified.threshold_curve == "BN254"
        assert modified.num_nodes == 7
        radio = scenario.with_radio(LORA_FAST)
        assert radio.radio.name == "lora-sf7-250k"
        byz = scenario.with_byzantine(ByzantineSpec.crash_nodes([0]))
        assert byz.byzantine.is_byzantine(0)
        replaced = scenario.replace(timeout_s=100.0)
        assert replaced.timeout_s == 100.0


class TestMetricsAndReporting:
    def test_throughput_computation(self):
        result = ConsensusRunResult(protocol="beat", batched=True, num_nodes=4,
                                    decided=True, latency_s=30.0,
                                    committed_transactions=20)
        assert result.throughput_tpm == pytest.approx(40.0)
        undecided = ConsensusRunResult(protocol="beat", batched=True, num_nodes=4,
                                       decided=False, latency_s=float("nan"))
        assert undecided.throughput_tpm == 0.0

    def test_empty_latency_sample_renders_na_not_nan(self):
        # An all-timeout sample yields NaN statistics; the reporting layer
        # must render those as "n/a" instead of leaking "nan" into tables.
        nan = float("nan")
        table = format_table(["metric", "value"],
                             [["mean", nan], ["max", nan]],
                             title="empty sample")
        assert "n/a" in table
        assert "nan" not in table

    def test_improvement_helpers(self):
        assert improvement_percent(100.0, 50.0) == pytest.approx(50.0)
        assert increase_percent(100.0, 150.0) == pytest.approx(50.0)
        assert improvement_percent(0.0, 10.0) == 0.0

    def test_format_table(self):
        text = format_table(["protocol", "latency"],
                            [["beat", 12.345], ["dumbo-sc", 20.0]],
                            title="Fig. 13a")
        assert "Fig. 13a" in text
        assert "beat" in text and "12.35" in text
        assert text.count("\n") >= 3
