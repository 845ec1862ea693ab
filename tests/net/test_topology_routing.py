"""Tests for topologies and inter-cluster routing."""

import pytest

from repro.net.routing import InterClusterRouting
from repro.net.topology import (
    MultiHopTopology,
    SingleHopTopology,
    TopologyError,
    faults_tolerated,
)


class TestFaultsTolerated:
    def test_standard_sizes(self):
        assert faults_tolerated(4) == 1
        assert faults_tolerated(7) == 2
        assert faults_tolerated(10) == 3
        assert faults_tolerated(16) == 5

    def test_invalid(self):
        with pytest.raises(TopologyError):
            faults_tolerated(0)


class TestSingleHopTopology:
    def test_basic_properties(self):
        topology = SingleHopTopology(4)
        assert topology.num_nodes == 4
        assert topology.num_clusters == 1
        assert not topology.is_multi_hop
        assert topology.all_node_ids() == [0, 1, 2, 3]

    def test_cluster_lookup(self):
        topology = SingleHopTopology(7)
        assert topology.cluster_of(5).index == 0
        with pytest.raises(TopologyError):
            topology.cluster_of(99)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            SingleHopTopology(3)


class TestMultiHopTopology:
    def test_paper_configuration(self):
        topology = MultiHopTopology([4, 4, 4, 4])
        assert topology.num_nodes == 16
        assert topology.num_clusters == 4
        assert topology.is_multi_hop
        assert topology.clusters[2].node_ids == (8, 9, 10, 11)
        assert topology.cluster_of(9).index == 2

    def test_default_links_form_ring(self):
        topology = MultiHopTopology([4, 4, 4, 4])
        assert len(topology.cluster_links) == 4

    def test_heterogeneous_clusters(self):
        topology = MultiHopTopology([4, 7])
        assert topology.clusters[1].size == 7
        assert faults_tolerated(topology.clusters[1].size) == 2

    def test_small_cluster_rejected(self):
        with pytest.raises(TopologyError):
            MultiHopTopology([4, 3])
        with pytest.raises(TopologyError):
            MultiHopTopology([])


class TestInterClusterRouting:
    def test_ring_hop_counts(self):
        topology = MultiHopTopology([4, 4, 4, 4])
        routing = InterClusterRouting(topology)
        assert routing.cluster_hops(0, 0) == 0
        assert routing.cluster_hops(0, 1) == 1
        assert routing.cluster_hops(0, 2) == 2
        assert routing.cluster_hops(1, 3) == 2

    def test_node_level_hops(self):
        topology = MultiHopTopology([4, 4, 4, 4])
        routing = InterClusterRouting(topology)
        assert routing.node_hops(0, 5) == 1   # cluster 0 -> cluster 1
        assert routing.node_hops(1, 2) == 0   # same cluster

    def test_hop_table_for_leaders(self):
        topology = MultiHopTopology([4, 4, 4, 4])
        routing = InterClusterRouting(topology)
        leaders = [0, 4, 8, 12]
        table = routing.hop_table_for(leaders)
        assert table[(0, 8)] == 2
        assert table[(0, 4)] == 1
        assert (0, 0) not in table

    def test_custom_links(self):
        topology = MultiHopTopology([4, 4, 4], cluster_links=[(0, 1), (1, 2)])
        routing = InterClusterRouting(topology)
        assert routing.cluster_hops(0, 2) == 2

    def test_disconnected_clusters_raise_at_construction(self):
        # A partitioned backbone used to surface only as a late TopologyError
        # from cluster_hops mid-run; it must now fail at construction, naming
        # the disconnected components.
        topology = MultiHopTopology([4, 4, 4], cluster_links=[(0, 1)])
        with pytest.raises(TopologyError) as excinfo:
            InterClusterRouting(topology)
        message = str(excinfo.value)
        assert "disconnected" in message
        assert "{0, 1}" in message and "{2}" in message

    def test_disconnected_isolated_pairs_name_all_components(self):
        topology = MultiHopTopology([4] * 4,
                                    cluster_links=[(0, 1), (2, 3)])
        with pytest.raises(TopologyError) as excinfo:
            InterClusterRouting(topology)
        assert "{0, 1}" in str(excinfo.value)
        assert "{2, 3}" in str(excinfo.value)

    def test_connected_graph_constructs(self):
        topology = MultiHopTopology([4, 4, 4], cluster_links=[(0, 1), (1, 2)])
        routing = InterClusterRouting(topology)
        assert routing.cluster_hops(0, 2) == 2

    def test_single_hop_topology_rejected(self):
        with pytest.raises(TopologyError):
            InterClusterRouting(SingleHopTopology(4))
