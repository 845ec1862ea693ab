"""Integration tests: component experiments on the simulated wireless testbed."""

import random

import pytest

from repro.components.rbc import BrachaRbc
from repro.core.overhead import MessageOverheadModel
from repro.net.adversary import LinkFaultSpec
from repro.testbed import harness
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import (
    DeploymentError,
    _CompletionLatch,
    build_deployment,
    run_aba_experiment,
    run_broadcast_experiment,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import ChurnSpec


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
        assert per_node <= 2 * model.row("RBC").consensus_batcher + 2

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

    def test_an_honest_node_that_outputs_another_value_fails_the_run(
            self, monkeypatch):
        complete = BrachaRbc.complete

        def fork(rbc, output):
            if (rbc.ctx.node_id, rbc.instance) == (2, 1):
                output = b"forked"
            complete(rbc, output)

        monkeypatch.setattr(BrachaRbc, "complete", fork)
        with pytest.raises(DeploymentError,
                           match=r"^rbc agreement violated for instance 1: "
                                 r"node 2 "):
            run_broadcast_experiment("rbc", parallelism=3, seed=1)


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


#: scenarios a one-epoch single-hop component run cannot run, each with the
#: part of the error that names why
UNRUNNABLE = {
    # two 4-node clusters: the run would be two unrelated deployments
    "multi-hop": (Scenario.multi_hop(2, 4), "single-hop"),
    # fires at stream epoch 2, which a one-epoch run never reaches
    "epoch-crash": (Scenario.single_hop(4).with_byzantine(
        ByzantineSpec(assignments={3: "epoch-crash"})), "run_streaming"),
    # reconfigures at epoch boundaries, which a one-epoch run does not have
    "churn": (Scenario.single_hop(5).with_membership(
        ChurnSpec(join_rate=0.01, horizon_s=50.0)), "run_streaming"),
}


class TestScenarioGuard:
    @pytest.mark.parametrize("entry_point", ["rbc", "aba-sc"])
    @pytest.mark.parametrize("name", sorted(UNRUNNABLE))
    def test_component_runs_reject_what_they_cannot_run(self, entry_point,
                                                        name):
        scenario, reason = UNRUNNABLE[name]
        with pytest.raises(DeploymentError, match=reason):
            if entry_point == "rbc":
                run_broadcast_experiment("rbc", seed=1, scenario=scenario)
            else:
                run_aba_experiment("sc", seed=1, scenario=scenario)


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


#: the same six figures for every component the vote machine, the ABA base
#: and the one NACK rebroadcast hook serve (plus ``cbc`` / ``cbc-small``,
#: which none of them touches, as the control), keyed by (component, batched,
#: serial instances, lossy links, seed) and recorded on the commit before
#: they existed (PR 21's parent).  Broadcasts: n=7, 7 instances, 2-packet
#: proposals; ABA: 4 instances in parallel or 3 back to back at n=4.  The
#: lossy rows give node 3 of seven dropping, duplicating and reordering
#: links, so NACK repair runs and duplicates cross the tallies.
PINNED_COMPONENT_RUNS = {
    ('rbc-small', True, 0, False, 1): ('4.32510236541015', 29, 1604, 0, 0, 505),
    ('rbc-small', True, 0, False, 2): ('3.5093266907524567', 25, 1389, 0, 0, 452),
    ('rbc-small', False, 0, False, 1): ('16.012471439187692', 97, 7924, 0, 0, 1855),
    ('rbc-small', False, 0, False, 2): ('16.740266862802002', 100, 8176, 0, 0, 1926),
    ('prbc', True, 0, False, 1): ('18.35033804040076', 71, 10606, 0, 0, 1030),
    ('prbc', True, 0, False, 2): ('18.44685512849396', 71, 10317, 0, 0, 995),
    ('prbc', False, 0, False, 1): ('30.895170177753382', 158, 16101, 0, 0, 2855),
    ('prbc', False, 0, False, 2): ('28.70895961670997', 149, 15205, 0, 0, 2718),
    ('cbc', True, 0, False, 1): ('11.918011617064533', 39, 6866, 0, 0, 518),
    ('cbc', True, 0, False, 2): ('12.1127111276378', 40, 7025, 0, 0, 539),
    ('cbc', False, 0, False, 1): ('16.222164476253948', 69, 8765, 0, 0, 1157),
    ('cbc', False, 0, False, 2): ('16.527207958555795', 70, 8869, 0, 0, 1197),
    ('cbc-small', True, 0, False, 1): ('4.864393276557206', 22, 2416, 0, 0, 392),
    ('cbc-small', True, 0, False, 2): ('4.684787261918095', 20, 2314, 0, 0, 366),
    ('cbc-small', False, 0, False, 1): ('12.657941441519029', 63, 6286, 0, 0, 1191),
    ('cbc-small', False, 0, False, 2): ('12.442411949427287', 63, 6286, 0, 0, 1185),
    ('aba-lc', True, 0, False, 1): ('3.1116918742405986', 22, 1215, 0, 16, 244),
    ('aba-lc', True, 0, False, 2): ('2.763445539080493', 20, 1107, 0, 16, 222),
    ('aba-lc', False, 0, False, 1): ('186.05092995887154', 1087, 90221, 0, 36, 12173),
    ('aba-lc', False, 0, False, 2): ('124.97891910713417', 729, 60507, 0, 24, 8153),
    ('aba-lc', True, 3, False, 1): ('11.322061245595311', 83, 4440, 0, 12, 883),
    ('aba-lc', True, 3, False, 2): ('11.567508279764', 85, 4546, 0, 12, 892),
    ('aba-lc', False, 3, False, 1): ('68.63275293129215', 395, 32785, 0, 12, 4383),
    ('aba-lc', False, 3, False, 2): ('105.66674921742695', 604, 50132, 0, 20, 6652),
    ('aba-sc', True, 0, False, 1): ('6.732550485158502', 41, 2921, 0, 48, 457),
    ('aba-sc', True, 0, False, 2): ('4.9158214639232', 31, 2236, 0, 40, 344),
    ('aba-sc', False, 0, False, 1): ('14.613900535700115', 83, 7183, 0, 24, 971),
    ('aba-sc', False, 0, False, 2): ('21.30137152073728', 119, 10263, 0, 28, 1333),
    ('aba-sc', True, 3, False, 1): ('12.15731241820522', 82, 5170, 0, 36, 868),
    ('aba-sc', True, 3, False, 2): ('6.513986339826363', 45, 2817, 0, 20, 495),
    ('aba-sc', False, 3, False, 1): ('23.42005808512746', 127, 10980, 0, 40, 1367),
    ('aba-sc', False, 3, False, 2): ('16.899669011688708', 95, 8212, 0, 24, 1011),
    ('aba-cp', True, 0, False, 1): ('5.088415276258464', 32, 2281, 0, 40, 354),
    ('aba-cp', True, 0, False, 2): ('6.631553960516664', 42, 3031, 0, 48, 462),
    ('aba-cp', False, 0, False, 1): ('23.49102287266634', 131, 11513, 0, 32, 1473),
    ('aba-cp', False, 0, False, 2): ('23.865763155732115', 133, 11519, 0, 32, 1472),
    ('aba-cp', True, 3, False, 1): ('6.852980392569556', 47, 2917, 0, 20, 508),
    ('aba-cp', True, 3, False, 2): ('6.513986339826363', 45, 2817, 0, 20, 495),
    ('aba-cp', False, 3, False, 1): ('18.765306827013703', 103, 8884, 0, 28, 1113),
    ('aba-cp', False, 3, False, 2): ('16.83226816905596', 93, 8124, 0, 24, 1002),
    ('rbc', True, 0, True, 1): ('23.226595380985543', 63, 8653, 0, 0, 975),
    ('rbc', False, 0, True, 1): ('27.346700617789313', 119, 12131, 0, 0, 2050),
    ('rbc-small', True, 0, True, 1): ('2.5351543169863042', 18, 1035, 0, 0, 327),
    ('rbc-small', False, 0, True, 1): ('16.04895967469555', 96, 7840, 0, 0, 1809),
    ('prbc', True, 0, True, 1): ('27.87575848001285', 82, 11798, 0, 0, 1207),
    ('prbc', False, 0, True, 1): ('47.96492636580526', 195, 19881, 0, 0, 3490),
    ('aba-lc', True, 0, True, 1): ('6.895117688933463', 55, 2994, 0, 28, 1001),
    ('aba-sc', True, 0, True, 1): ('5.626740713785939', 37, 2568, 0, 42, 719),
}


class TestPinnedIdentity:
    """The ledger's bit-identity contract, in tier-1: n=7 on the paper's
    radio and the ledger's own ``components-n32`` cells, then every
    component kind, serial and parallel, on clean and lossy links."""

    @pytest.fixture
    def built(self, monkeypatch):
        deployments = []
        original = harness.build_deployment

        def capture(*args, **kwargs):
            deployments.append(original(*args, **kwargs))
            return deployments[-1]

        monkeypatch.setattr(harness, "build_deployment", capture)
        return deployments

    @staticmethod
    def _figures(result, built):
        (deployment,) = built
        return (repr(result.latency_s), result.channel_accesses,
                result.bytes_sent, result.collisions, result.rounds_executed,
                deployment.sim.events_processed)

    @pytest.mark.parametrize("component,batched,size,seed", sorted(PINNED_RUNS))
    def test_run_reproduces_the_recorded_figures(self, built, component,
                                                 batched, size, seed):
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
        assert self._figures(result, built) \
            == PINNED_RUNS[component, batched, size, seed]

    @pytest.mark.parametrize("component,batched,serial,lossy,seed",
                             sorted(PINNED_COMPONENT_RUNS))
    def test_every_component_reproduces_the_recorded_figures(
            self, built, component, batched, serial, lossy, seed):
        scenario = None
        if lossy:
            # node 3's outgoing links drop, duplicate and reorder frames
            scenario = Scenario.single_hop(7).with_link_faults(LinkFaultSpec(
                drop_rate=0.08, duplicate_rate=0.05, reorder_jitter_s=0.25,
                senders=frozenset({3})))
        if component.startswith("aba-"):
            result = run_aba_experiment(
                component[4:], parallel_instances=4, serial_instances=serial,
                num_nodes=4, batched=batched, seed=seed, scenario=scenario)
        else:
            result = run_broadcast_experiment(
                component, parallelism=7, proposal_packets=2, num_nodes=7,
                batched=batched, seed=seed, scenario=scenario)
        assert result.completed
        assert self._figures(result, built) \
            == PINNED_COMPONENT_RUNS[component, batched, serial, lossy, seed]


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
        deployment.close()

    def test_multi_hop_deployment_shape(self):
        deployment = build_deployment(Scenario.multi_hop(4, 4), batched=True, seed=1)
        assert len(deployment.nodes) == 16
        assert len(deployment.channels) == 5  # 4 cluster channels + backbone
        assert len(deployment.global_runtimes) == 4  # one leader per cluster
        for leader_id in deployment.global_runtimes:
            assert "backbone" in deployment.nodes[leader_id].interfaces
        deployment.close()

    def test_crash_strategy_applied_at_build_time(self):
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec.crash_nodes([2]))
        deployment = build_deployment(scenario, batched=True, seed=1)
        assert deployment.nodes[2].crashed
        assert deployment.honest_ids() == [0, 1, 3]
        deployment.close()

    def test_slow_links_strategy_targets_adversary(self):
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={1: "slow-links"}))
        deployment = build_deployment(scenario, batched=True, seed=1)
        assert deployment.adversary.delay_model.targeted[(1, 0)] > 0
        deployment.close()
