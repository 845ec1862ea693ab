"""Regression tests for leader rotation with persistent exclusions.

``select_leader`` takes the excluded set per call; the harness's
leader-replacement path must persist exclusions across epochs so a
rotated-out crashed leader is never re-selected.
"""

from contextlib import closing

import pytest

from repro.protocols.multihop import select_leader
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import build_deployment, run_multihop_consensus
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec


def cluster0(scenario: Scenario):
    return scenario.topology.clusters[0]


def epoch_leader(scenario: Scenario) -> int:
    """The leader a fresh deployment of ``scenario`` wires for cluster 0."""
    with closing(build_deployment(scenario)) as deployment:
        return deployment.epoch_leaders[0]


def test_select_leader_with_every_node_excluded_raises():
    cluster = cluster0(Scenario.multi_hop(4, 4))
    with pytest.raises(ValueError, match="no eligible leader"):
        select_leader(cluster, 0, frozenset(cluster.node_ids))


class TestSelectLeader:
    """The per-call exclusion contract the harness's rotation loop relies on:
    a caller that carries its excluded set forward never gets a rotated-out
    node back."""

    def test_excluded_leader_never_rechosen_across_epochs(self):
        cluster = cluster0(Scenario.multi_hop(4, 4))
        rotated_out = select_leader(cluster, epoch=0)
        excluded = frozenset({rotated_out})
        for epoch in range(1, 50):
            assert select_leader(cluster, epoch, excluded) != rotated_out, (
                f"excluded leader re-selected at epoch {epoch}")

    def test_exclusions_accumulate(self):
        cluster = cluster0(Scenario.multi_hop(2, 7))
        excluded = frozenset()
        for epoch in range(3):
            leader = select_leader(cluster, epoch, excluded)
            assert leader not in excluded
            excluded |= {leader}
        for epoch in range(3, 30):
            assert select_leader(cluster, epoch, excluded) not in excluded

    def test_choice_is_a_member_and_repeatable(self):
        cluster = Scenario.multi_hop(3, 4).topology.clusters[1]
        for epoch in range(5):
            leader = select_leader(cluster, epoch)
            assert leader in cluster.node_ids
            assert select_leader(cluster, epoch) == leader

    def test_foreign_exclusions_do_not_change_the_choice(self):
        cluster = cluster0(Scenario.multi_hop(4, 4))
        for epoch in range(5):
            assert select_leader(cluster, epoch, frozenset({99})) == \
                select_leader(cluster, epoch)


class TestHarnessRotation:
    def test_rotation_off_keeps_epoch0_leader(self):
        scenario = Scenario.multi_hop(4, 4)
        leader = select_leader(cluster0(scenario), epoch=0)
        crashed = scenario.with_byzantine(
            ByzantineSpec.crash_nodes([leader]))
        assert epoch_leader(crashed) == leader

    def test_rotation_replaces_crashed_leader(self):
        scenario = Scenario.multi_hop(4, 4, rotate_crashed_leaders=True)
        leader = select_leader(cluster0(scenario), epoch=0)
        crashed = scenario.with_byzantine(ByzantineSpec.crash_nodes([leader]))
        replacement = epoch_leader(crashed)
        assert replacement != leader
        assert replacement in cluster0(crashed).node_ids

    def test_rotation_skips_consecutively_crashed_leaders(self):
        scenario = Scenario.multi_hop(4, 4, rotate_crashed_leaders=True)
        cluster = cluster0(scenario)
        first = select_leader(cluster, epoch=0)
        second = select_leader(cluster, 1, frozenset({first}))
        crashed = scenario.with_byzantine(
            ByzantineSpec.crash_nodes([first, second]))
        replacement = epoch_leader(crashed)
        assert replacement not in (first, second)

    def test_rotation_leaves_other_clusters_leaders_alone(self):
        scenario = Scenario.multi_hop(3, 4, rotate_crashed_leaders=True)
        clusters = scenario.topology.clusters
        leader = select_leader(clusters[0], epoch=0)
        crashed = scenario.with_byzantine(ByzantineSpec.crash_nodes([leader]))
        with closing(build_deployment(crashed)) as deployment:
            assert deployment.epoch_leaders[0] != leader
            for cluster in clusters[1:]:
                assert deployment.epoch_leaders[cluster.index] == \
                    select_leader(cluster, epoch=0)

    def test_multihop_decides_with_rotated_leader(self):
        scenario = Scenario.multi_hop(4, 4, rotate_crashed_leaders=True)
        leader = select_leader(cluster0(scenario), epoch=0)
        crashed = scenario.with_byzantine(ByzantineSpec.crash_nodes([leader]))
        result = run_multihop_consensus(
            "honeybadger-sc", crashed, seed=3,
            workload_spec=WorkloadSpec(batch_size=2, transaction_bytes=32))
        assert result.decided
        assert result.committed_transactions > 0
