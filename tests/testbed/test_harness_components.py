"""Integration tests: component experiments on the simulated wireless testbed."""

import random

import pytest

from repro.core.overhead import MessageOverheadModel
from repro.testbed import harness
from repro.testbed.harness import (
    DeploymentError,
    _CompletionLatch,
    build_deployment,
    run_aba_experiment,
    run_broadcast_experiment,
)
from repro.testbed.scenarios import Scenario


class TestBroadcastExperiments:
    def test_rbc_completes_and_reports_latency(self):
        result = run_broadcast_experiment("rbc", parallelism=2, batched=True, seed=1)
        assert result.completed
        assert result.latency_s > 0
        assert result.channel_accesses > 0
        assert result.component == "rbc"

    def test_batching_reduces_channel_accesses_for_parallel_rbc(self):
        batched = run_broadcast_experiment("rbc", parallelism=4, batched=True, seed=2)
        baseline = run_broadcast_experiment("rbc", parallelism=4, batched=False, seed=2)
        assert batched.completed and baseline.completed
        assert batched.channel_accesses < baseline.channel_accesses
        assert batched.latency_s < baseline.latency_s

    def test_batched_accesses_close_to_table1_prediction(self):
        # Table I: RBC per-node overhead is 1 + 2 with ConsensusBatcher vs
        # 1 + 2N for the baseline.  Reliability retransmissions add a little
        # slack, so allow a 2x margin.
        model = MessageOverheadModel(4)
        result = run_broadcast_experiment("rbc", parallelism=4, batched=True, seed=3)
        per_node = result.channel_accesses_per_node
        assert per_node <= 2 * model.rbc().consensus_batcher + 2

    def test_rbc_small_cheaper_than_rbc(self):
        small = run_broadcast_experiment("rbc-small", parallelism=4, batched=True,
                                         seed=4)
        full = run_broadcast_experiment("rbc", parallelism=4, batched=True, seed=4)
        assert small.completed and full.completed
        assert small.bytes_sent < full.bytes_sent

    def test_prbc_slower_than_rbc(self):
        rbc = run_broadcast_experiment("rbc", parallelism=2, batched=True, seed=5)
        prbc = run_broadcast_experiment("prbc", parallelism=2, batched=True, seed=5)
        assert prbc.completed
        assert prbc.latency_s > rbc.latency_s

    def test_cbc_completes(self):
        result = run_broadcast_experiment("cbc", parallelism=2, batched=True, seed=6)
        assert result.completed
        small = run_broadcast_experiment("cbc-small", parallelism=2, batched=True,
                                         seed=6)
        assert small.completed

    def test_proposal_size_increases_latency(self):
        small = run_broadcast_experiment("rbc", parallelism=1, proposal_packets=1,
                                         batched=True, seed=7)
        large = run_broadcast_experiment("rbc", parallelism=1, proposal_packets=3,
                                         batched=True, seed=7)
        assert large.latency_s > small.latency_s

    def test_unknown_component_rejected(self):
        with pytest.raises(DeploymentError):
            run_broadcast_experiment("avid-x", parallelism=1)


class TestAbaExperiments:
    def test_parallel_aba_sc_completes_with_agreement(self):
        result = run_aba_experiment("sc", parallel_instances=2, batched=True, seed=1)
        assert result.completed
        assert result.component == "aba-sc"
        assert result.rounds_executed >= 1

    def test_batching_helps_parallel_aba(self):
        batched = run_aba_experiment("sc", parallel_instances=4, batched=True, seed=2)
        baseline = run_aba_experiment("sc", parallel_instances=4, batched=False,
                                      seed=2)
        assert batched.completed and baseline.completed
        assert batched.channel_accesses < baseline.channel_accesses
        assert batched.latency_s < baseline.latency_s

    def test_serial_aba_completes(self):
        result = run_aba_experiment("sc", serial_instances=2, batched=True, seed=3)
        assert result.completed
        assert result.serial_instances == 2

    def test_serial_slower_than_single(self):
        one = run_aba_experiment("sc", serial_instances=1, batched=True, seed=4)
        three = run_aba_experiment("sc", serial_instances=3, batched=True, seed=4)
        assert three.latency_s > one.latency_s

    def test_local_coin_aba_completes(self):
        result = run_aba_experiment("lc", parallel_instances=2, batched=True, seed=5)
        assert result.completed

    def test_coin_flip_aba_completes(self):
        result = run_aba_experiment("cp", parallel_instances=2, batched=True, seed=6)
        assert result.completed

    def test_unknown_kind_rejected(self):
        with pytest.raises(DeploymentError):
            run_aba_experiment("xyz")


class TestReportedDeploymentSize:
    def test_num_nodes_is_the_scenarios_not_the_default_argument(self):
        scenario = Scenario.single_hop(7)
        assert run_broadcast_experiment(
            "rbc-small", scenario=scenario, seed=1).num_nodes == 7
        assert run_aba_experiment("lc", scenario=scenario, seed=1).num_nodes == 7


#: (latency repr, channel accesses, bytes, collisions, ABA rounds, sim events)
#: recorded on the commit before the per-event fast paths (PR 17's parent).
#: Every figure is a pure function of the arguments: a fast path that moves
#: an event, an RNG draw or a virtual-time value moves one of these.
PINNED_RUNS = {
    ("rbc", True, 7, 1): ("12.461316061218483", 45, 7025, 0, 0, 675),
    ("rbc", False, 7, 1): ("21.125465438782214", 108, 10941, 0, 0, 1906),
    ("aba-sc", True, 7, 1): ("5.608759317474717", 35, 2513, 0, 77, 693),
    ("rbc", True, 7, 2): ("12.569110895311155", 48, 6975, 0, 0, 678),
    ("rbc", False, 7, 2): ("19.928539939033357", 102, 10437, 0, 0, 1822),
    ("aba-sc", True, 7, 2): ("5.908413473189428", 36, 2617, 0, 77, 723),
    ("rbc", True, 32, 1): ("0.9836489980439864", 178, 99400, 0, 0, 10491),
    ("rbc", False, 32, 1): ("1.7413288716474493", 759, 133785, 0, 0, 55554),
    ("aba-sc", True, 32, 1): ("0.2984227498604654", 180, 14236, 0, 576, 13950),
    ("rbc", True, 32, 2): ("1.0076137156703264", 198, 100851, 0, 0, 11945),
    ("rbc", False, 32, 2): ("1.7197031804229002", 763, 134133, 0, 0, 55900),
    ("aba-sc", True, 32, 2): ("0.2988277891435055", 184, 14455, 0, 576, 14254),
}


class TestPinnedIdentity:
    """The ledger's bit-identity contract, in tier-1: n=7 on the paper's
    radio and the ledger's own ``components-n32`` cells."""

    @pytest.mark.parametrize("component,batched,size,seed", sorted(PINNED_RUNS))
    def test_run_reproduces_the_recorded_figures(self, monkeypatch, component,
                                                 batched, size, seed):
        built = []
        original = harness.build_deployment

        def capture(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "build_deployment", capture)
        scenario, parallel, packets = (Scenario.single_hop(7), 7, 2) \
            if size == 7 else (Scenario.scale_single_hop(32), 12, 4)
        if component == "rbc":
            result = run_broadcast_experiment(
                "rbc", parallelism=parallel, proposal_packets=packets,
                num_nodes=size, batched=batched, seed=seed, scenario=scenario)
        else:
            result = run_aba_experiment(
                "sc", parallel_instances=parallel, num_nodes=size, seed=seed,
                scenario=scenario)
        (deployment,) = built
        assert (repr(result.latency_s), result.channel_accesses,
                result.bytes_sent, result.collisions, result.rounds_executed,
                deployment.sim.events_processed) \
            == PINNED_RUNS[component, batched, size, seed]


class TestCompletionLatch:
    def test_agrees_with_the_scan_it_replaced_after_every_step(self):
        rng = random.Random(23)
        for _ in range(200):
            nodes = list(range(rng.randrange(1, 7)))
            honest = [node for node in nodes if rng.random() < 0.7]
            instances = rng.randrange(0, 4)
            latch = _CompletionLatch(honest, instances)
            completions = {node: set() for node in nodes}
            target = set(range(instances))

            def scan():
                return all(completions[node] >= target for node in honest)

            assert latch.done() == scan()
            for _ in range(40):
                # Byzantine (non-honest) nodes, repeated outputs and
                # instances outside the target range all occur
                node = rng.choice(nodes)
                instance = rng.randrange(-1, instances + 2)
                completions[node].add(instance)
                latch.mark(node, instance)
                assert latch.done() == scan()


class TestDeploymentConstruction:
    def test_single_hop_deployment_shape(self):
        deployment = build_deployment(Scenario.single_hop(4), batched=True, seed=1)
        assert len(deployment.nodes) == 4
        assert len(deployment.runtimes) == 4
        assert set(deployment.channels) == {"ch0"}
        assert deployment.honest_ids() == [0, 1, 2, 3]
        deployment.shutdown()

    def test_multi_hop_deployment_shape(self):
        deployment = build_deployment(Scenario.multi_hop(4, 4), batched=True, seed=1)
        assert len(deployment.nodes) == 16
        assert len(deployment.channels) == 5  # 4 cluster channels + backbone
        assert len(deployment.global_runtimes) == 4  # one leader per cluster
        for leader_id in deployment.global_runtimes:
            assert "backbone" in deployment.nodes[leader_id].interfaces
        deployment.shutdown()

    def test_crash_strategy_applied_at_build_time(self):
        from repro.testbed.byzantine import ByzantineSpec

        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec.crash_nodes([2]))
        deployment = build_deployment(scenario, batched=True, seed=1)
        assert deployment.nodes[2].crashed
        assert deployment.honest_ids() == [0, 1, 3]
        deployment.shutdown()

    def test_slow_links_strategy_targets_adversary(self):
        from repro.testbed.byzantine import ByzantineSpec

        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={1: "slow-links"}))
        deployment = build_deployment(scenario, batched=True, seed=1)
        assert deployment.adversary.delay_model.targeted[(1, 0)] > 0
        deployment.shutdown()
