"""Regression tests for leader rotation with persistent exclusions.

``select_leader`` takes the excluded set per call; the harness's
leader-replacement path must persist exclusions across epochs so a
rotated-out Byzantine leader is never re-selected (the bug class
:class:`repro.protocols.multihop.LeaderSchedule` exists to prevent).
"""

from contextlib import closing

import pytest

from repro.net.topology import MultiHopTopology
from repro.protocols.multihop import LeaderSchedule, select_leader
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import build_deployment, run_multihop_consensus
from repro.testbed.scenarios import Scenario


def cluster0(scenario: Scenario):
    return scenario.topology.clusters[0]


def epoch_leader(scenario: Scenario) -> int:
    """The leader a fresh deployment of ``scenario`` wires for cluster 0."""
    with closing(build_deployment(scenario)) as deployment:
        return deployment.epoch_leaders[0]


class TestLeaderSchedule:
    def test_excluded_leader_never_rechosen_across_epochs(self):
        cluster = MultiHopTopology([4, 4]).clusters[0]
        schedule = LeaderSchedule(cluster)
        rotated_out = schedule.leader(epoch=0)
        schedule.exclude(rotated_out)
        for epoch in range(1, 50):
            assert schedule.leader(epoch) != rotated_out, (
                f"excluded leader re-selected at epoch {epoch}")

    def test_exclusions_accumulate(self):
        cluster = MultiHopTopology([7, 4]).clusters[0]
        schedule = LeaderSchedule(cluster)
        excluded = set()
        for epoch in range(3):
            leader = schedule.leader(epoch)
            assert leader not in excluded
            schedule.exclude(leader)
            excluded.add(leader)
        for epoch in range(3, 30):
            assert schedule.leader(epoch) not in excluded

    def test_exhausting_candidates_raises(self):
        cluster = MultiHopTopology([4, 4]).clusters[0]
        schedule = LeaderSchedule(cluster)
        for node_id in cluster.node_ids:
            schedule.exclude(node_id)
        with pytest.raises(ValueError):
            schedule.leader(epoch=0)

    def test_exclude_foreign_node_rejected(self):
        cluster = MultiHopTopology([4, 4]).clusters[0]
        with pytest.raises(ValueError):
            LeaderSchedule(cluster).exclude(99)

    def test_matches_stateless_select_leader_without_exclusions(self):
        cluster = MultiHopTopology([4, 4, 4]).clusters[1]
        schedule = LeaderSchedule(cluster)
        for epoch in range(5):
            assert schedule.leader(epoch) == select_leader(cluster, epoch)


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
        schedule = LeaderSchedule(cluster)
        schedule.exclude(first)
        second = schedule.leader(epoch=1)
        crashed = scenario.with_byzantine(
            ByzantineSpec.crash_nodes([first, second]))
        replacement = epoch_leader(crashed)
        assert replacement not in (first, second)

    def test_multihop_decides_with_rotated_leader(self):
        scenario = Scenario.multi_hop(4, 4, rotate_crashed_leaders=True)
        leader = select_leader(cluster0(scenario), epoch=0)
        crashed = scenario.with_byzantine(ByzantineSpec.crash_nodes([leader]))
        result = run_multihop_consensus("honeybadger-sc", crashed,
                                        batch_size=2, transaction_bytes=32,
                                        seed=3)
        assert result.decided
        assert result.committed_transactions > 0
