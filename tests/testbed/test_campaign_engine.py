"""Unit tests for the campaign engine (cheap; the matrix itself is the
``campaign`` marker tier in tests/campaign/)."""

import json

import pytest

from repro.net.topology import faults_tolerated
from repro.protocols.multihop import select_leader
from repro.testbed.campaign import (
    CAMPAIGN_PROTOCOLS,
    CHURN_FAULTS,
    FAULT_MODELS,
    CampaignCell,
    CampaignSpec,
    TopologySpec,
    build_cell_scenario,
    campaign_report,
    default_cells,
    run_cell,
)


class TestTopologySpec:
    def test_labels_and_scenarios(self):
        single = TopologySpec.single(7)
        assert single.label == "sh7"
        assert not single.is_multi_hop
        assert single.base_scenario().num_nodes == 7
        multi = TopologySpec.multi(4, 4)
        assert multi.label == "mh4x4"
        assert multi.is_multi_hop
        assert multi.base_scenario().topology.num_clusters == 4


class TestFaultModels:
    def test_catalogue_shape(self):
        assert {"none", "crash-f", "garbage", "equivocate", "lossy",
                "partition-heal", "quorum-loss"} <= set(FAULT_MODELS)
        assert not FAULT_MODELS["quorum-loss"].expect_decision
        assert all(model.expect_decision for name, model in FAULT_MODELS.items()
                   if name != "quorum-loss")

    def test_crash_respects_fault_budget(self):
        scenario = build_cell_scenario(
            CampaignCell("beat", TopologySpec.single(7), "crash-f"))
        assert len(scenario.byzantine.byzantine_ids) == faults_tolerated(7)

    def test_multihop_faults_spare_leaders(self):
        scenario = build_cell_scenario(
            CampaignCell("beat", TopologySpec.multi(4, 4), "equivocate"))
        leaders = {select_leader(cluster, epoch=0)
                   for cluster in scenario.topology.clusters}
        assert not (scenario.byzantine.byzantine_ids & leaders)
        # one victim per cluster, each within its cluster's fault budget
        assert len(scenario.byzantine.byzantine_ids) == 4

    def test_quorum_loss_crashes_beyond_tolerance(self):
        scenario = build_cell_scenario(
            CampaignCell("beat", TopologySpec.single(4), "quorum-loss"))
        assert len(scenario.byzantine.byzantine_ids) == faults_tolerated(4) + 1
        multi = build_cell_scenario(
            CampaignCell("beat", TopologySpec.multi(4, 4), "quorum-loss"))
        leaders = {select_leader(cluster, epoch=0)
                   for cluster in multi.topology.clusters}
        # multi-hop quorum loss hits the leader backbone
        assert multi.byzantine.byzantine_ids <= leaders
        assert len(multi.byzantine.byzantine_ids) > faults_tolerated(len(leaders))

    def test_partition_heal_installs_transient_partition(self):
        scenario = build_cell_scenario(
            CampaignCell("beat", TopologySpec.single(4), "partition-heal"))
        assert len(scenario.partitions) == 1
        assert scenario.partitions[0].heal_s is not None

    def test_lossy_installs_link_faults(self):
        scenario = build_cell_scenario(
            CampaignCell("beat", TopologySpec.single(4), "lossy"))
        assert scenario.link_faults
        assert 0 < scenario.link_faults[0].drop_rate < 1

    def test_inadmissible_fault_model_rejected(self, monkeypatch):
        # A permanent partition plus a decision expectation can never be
        # satisfied; the engine must flag the fault model, not let the cell
        # time out and masquerade as a protocol liveness bug.
        from repro.net.adversary import PartitionSpec
        from repro.testbed.campaign import FAULT_MODELS, FaultModel

        def permanent_partition(scenario):
            return scenario.with_partition(PartitionSpec(
                groups=(frozenset({0, 1}), frozenset({2, 3}))))

        monkeypatch.setitem(FAULT_MODELS, "broken", FaultModel(
            "broken", "permanent partition, wrongly expects decision",
            permanent_partition))
        with pytest.raises(ValueError, match="eventual delivery"):
            build_cell_scenario(
                CampaignCell("beat", TopologySpec.single(4), "broken"))


class TestCells:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            CampaignCell("beat", TopologySpec.single(4), "teleportation")

    def test_default_matrix_deterministic_and_unique(self):
        first = default_cells(quick=True)
        second = default_cells(quick=True)
        assert first == second
        ids = [cell.cell_id for cell in first]
        assert len(ids) == len(set(ids))

    def test_base_seed_changes_cell_seeds(self):
        a = default_cells(quick=True, base_seed=0)
        b = default_cells(quick=True, base_seed=1)
        assert [cell.seed for cell in a] != [cell.seed for cell in b]

    def test_full_matrix_extends_quick(self):
        assert len(default_cells(quick=False)) > len(default_cells(quick=True))

    @pytest.mark.parametrize("fault", CHURN_FAULTS)
    def test_churn_on_a_multihop_topology_is_refused_at_construction(
            self, fault):
        # the streaming runner's own rule, stated once: a sweep of churn
        # faults over both topologies must be refused when it is built, not
        # die with a DeploymentError inside a campaign worker
        for ingress in ("", "three-class-shed"):
            with pytest.raises(ValueError, match="single-hop"):
                CampaignCell(protocol="honeybadger-sc",
                             topology=TopologySpec.multi(2, 4), fault=fault,
                             stream_epochs=4, ingress=ingress)
        CampaignCell(protocol="honeybadger-sc",
                     topology=TopologySpec.single(6), fault=fault,
                     stream_epochs=4)

    @pytest.mark.parametrize("fault,stream_epochs,reason", [
        # epoch-crash fires at epoch 2, which a 2-epoch stream never reaches
        ("stream-crash-epoch", 2, "epoch 2 can never fire"),
        # a one-epoch cell counts as one epoch
        ("stream-crash-epoch", 0, "epoch 2 can never fire"),
        ("node-churn-rate", 0, "streaming"),
    ])
    def test_what_the_fence_refuses_is_refused_at_construction(
            self, fault, stream_epochs, reason):
        # harness.check_composition's rules, applied when the cell is
        # built, so the refusal never reaches a campaign worker
        for ingress in ("", "three-class-defer"):
            if ingress and not stream_epochs:
                continue
            with pytest.raises(ValueError, match=reason):
                CampaignCell("honeybadger-sc", TopologySpec.single(6), fault,
                             stream_epochs=stream_epochs, ingress=ingress)
        CampaignCell("honeybadger-sc", TopologySpec.single(6), fault,
                     stream_epochs=3)

    def test_campaign_spec_cartesian(self):
        spec = CampaignSpec(protocols=("beat",),
                            topologies=(TopologySpec.single(4),),
                            faults=("none", "crash-f"),
                            flavors=("uniform", "telemetry"), seeds=(0, 1))
        assert len(spec.cells()) == 8  # 1 protocol x 1 topology x 2 x 2 x 2
        # the default fault axis covers every one-epoch model; streaming-only
        # models (which need stream_epochs > 0) are excluded by default
        one_epoch_models = [name for name, model in FAULT_MODELS.items()
                            if not model.streaming_only]
        assert len(one_epoch_models) < len(FAULT_MODELS)
        assert len(CampaignSpec(protocols=CAMPAIGN_PROTOCOLS).cells()) \
            == len(CAMPAIGN_PROTOCOLS) * len(one_epoch_models)


class TestExecution:
    def test_single_cell_end_to_end(self):
        outcome = run_cell(CampaignCell("beat", TopologySpec.single(4), "none",
                                        seed=3), quick=True)
        assert outcome.ok and outcome.decided
        assert outcome.block_digest
        assert {verdict.name for verdict in outcome.invariants} == {
            "liveness", "agreement", "total-order", "validity"}

    def test_report_is_json_stable(self):
        outcomes = [run_cell(CampaignCell("beat", TopologySpec.single(4),
                                          "quorum-loss", seed=5), quick=True)]
        report = campaign_report(outcomes, base_seed=5, quick=True)
        assert report["campaign"]["num_cells"] == 1
        assert report["campaign"]["all_ok"]
        encoded = json.dumps(report, sort_keys=True)
        assert json.loads(encoded) == report
        # the quorum-loss cell must not decide and must stay invariant-green
        (cell,) = report["cells"]
        assert cell["decided"] is False and cell["latency_s"] is None
