"""Inter-cluster routing for multi-hop deployments.

In the paper's multi-hop architecture (Section V-B), local consensus runs
inside each cluster on its own channel and a changeable cluster leader from
each cluster joins a *global* consensus.  Global-consensus traffic crosses the
backbone and is forwarded by relays, so each leader-to-leader delivery pays a
per-hop forwarding cost.  Existing Byzantine-fault-tolerant routing protocols
are assumed (the paper cites BSMR and ODSBR); the routing layer here therefore
only has to provide hop counts, not defend against routing attacks.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.net.topology import Topology, TopologyError


class InterClusterRouting:
    """Shortest-path hop counts between clusters of a multi-hop topology."""

    def __init__(self, topology: Topology) -> None:
        if not topology.is_multi_hop:
            raise TopologyError("routing is only meaningful for multi-hop topologies")
        self.topology = topology
        self._adjacency: dict[int, set[int]] = {
            cluster.index: set() for cluster in topology.clusters}
        for a, b in topology.cluster_links:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._check_connected()
        self._hops = self._all_pairs_hops()

    def _check_connected(self) -> None:
        """Fail fast on a partitioned backbone.

        A disconnected cluster graph used to surface only as a late
        ``TopologyError`` from :meth:`cluster_hops` once the first
        cross-component delivery was attempted mid-run; detecting it at
        construction names the disconnected components while the topology is
        still being assembled.
        """
        components: list[list[int]] = []
        unvisited = set(self._adjacency)
        while unvisited:
            start = min(unvisited)
            component = {start}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                for neighbour in self._adjacency[current]:
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            unvisited -= component
            components.append(sorted(component))
        if len(components) > 1:
            described = ", ".join(
                "{" + ", ".join(str(index) for index in component) + "}"
                for component in components)
            raise TopologyError(
                f"backbone cluster graph is disconnected: "
                f"{len(components)} components {described}; every cluster "
                f"pair needs a backbone route for global consensus")

    def _all_pairs_hops(self) -> dict[tuple[int, int], int]:
        hops: dict[tuple[int, int], int] = {}
        for source in self._adjacency:
            distances = {source: 0}
            frontier = deque([source])
            while frontier:
                current = frontier.popleft()
                for neighbour in self._adjacency[current]:
                    if neighbour not in distances:
                        distances[neighbour] = distances[current] + 1
                        frontier.append(neighbour)
            for target, distance in distances.items():
                hops[(source, target)] = max(distance, 1) if source != target else 0
        return hops

    def cluster_hops(self, source_cluster: int, target_cluster: int) -> int:
        """Backbone hops between two clusters (0 for the same cluster)."""
        if source_cluster == target_cluster:
            return 0
        try:
            return self._hops[(source_cluster, target_cluster)]
        except KeyError as exc:
            raise TopologyError(
                f"clusters {source_cluster} and {target_cluster} are not connected"
            ) from exc

    def node_hops(self, source_node: int, target_node: int) -> int:
        """Backbone hops between the clusters of two nodes."""
        source = self.topology.cluster_of(source_node).index
        target = self.topology.cluster_of(target_node).index
        return self.cluster_hops(source, target)

    def hop_table_for(self, node_ids: list[int]) -> Mapping[tuple[int, int], int]:
        """Per-pair hop counts for a set of nodes (e.g. the cluster leaders).

        The returned table is installed into the backbone channel so that each
        delivery between leaders pays ``(hops - 1)`` forwarding delays.
        """
        table: dict[tuple[int, int], int] = {}
        for source in node_ids:
            for target in node_ids:
                if source == target:
                    continue
                table[(source, target)] = max(1, self.node_hops(source, target))
        return table
