"""Network topologies: single-hop and clustered multi-hop (Section III-A / V-B).

A single-hop network has ``N = 3f + 1`` nodes sharing one channel.  A
multi-hop network is divided into ``M`` clusters, each a single-hop network
with ``N_i = 3f_i + 1`` nodes and its own channel; clusters communicate over a
routed backbone (modelled as a separate "global" channel whose per-pair hop
counts come from :mod:`repro.net.routing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class TopologyError(ValueError):
    """Raised for invalid topology specifications."""


def faults_tolerated(num_nodes: int) -> int:
    """Maximum Byzantine faults ``f`` for ``num_nodes = 3f + 1`` (floor)."""
    if num_nodes < 1:
        raise TopologyError(f"need at least one node, got {num_nodes}")
    return (num_nodes - 1) // 3


@dataclass(frozen=True)
class Cluster:
    """One single-hop cluster of a (possibly multi-hop) network."""

    index: int
    node_ids: tuple[int, ...]
    channel_name: str

    @property
    def size(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.node_ids)


@dataclass(frozen=True)
class Topology:
    """Base description of a deployment: clusters plus an optional backbone."""

    clusters: tuple[Cluster, ...]
    global_channel_name: Optional[str] = None
    #: adjacency between clusters (pairs of cluster indices); empty means a chain
    cluster_links: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return sum(cluster.size for cluster in self.clusters)

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    @property
    def is_multi_hop(self) -> bool:
        """True when the topology has more than one cluster."""
        return len(self.clusters) > 1

    def all_node_ids(self) -> list[int]:
        """Every node id in the deployment."""
        return [node_id for cluster in self.clusters for node_id in cluster.node_ids]

    def cluster_of(self, node_id: int) -> Cluster:
        """The cluster containing ``node_id``.

        O(1) after the first call: the node -> cluster map is built lazily
        and memoised on the instance (the dataclass is frozen, so the cache
        is attached via ``object.__setattr__``).  The linear scan this
        replaces made ``hop_table_for`` quadratic-times-n in large multi-hop
        deployments.
        """
        index = getattr(self, "_cluster_index", None)
        if index is None:
            index = {node_id: cluster
                     for cluster in self.clusters
                     for node_id in cluster.node_ids}
            object.__setattr__(self, "_cluster_index", index)
        try:
            return index[node_id]
        except KeyError:
            raise TopologyError(
                f"node {node_id} is not part of this topology") from None


class SingleHopTopology(Topology):
    """All ``num_nodes`` nodes share one channel."""

    def __new__(cls, num_nodes: int, channel_name: str = "ch0") -> "SingleHopTopology":
        if num_nodes < 4:
            raise TopologyError(
                f"BFT consensus needs at least 4 nodes (3f+1), got {num_nodes}")
        cluster = Cluster(index=0, node_ids=tuple(range(num_nodes)),
                          channel_name=channel_name)
        instance = super().__new__(cls)
        Topology.__init__(instance, clusters=(cluster,), global_channel_name=None)
        return instance

    def __init__(self, num_nodes: int, channel_name: str = "ch0") -> None:
        # __new__ already initialised the frozen dataclass fields.
        pass


class MultiHopTopology(Topology):
    """A clustered multi-hop network (Fig. 8 of the paper).

    ``cluster_sizes`` gives the number of nodes per cluster; node ids are
    assigned sequentially cluster by cluster.  ``cluster_links`` describes the
    backbone adjacency between clusters; if omitted, clusters form a ring,
    matching the four-cluster layout of Fig. 8.
    """

    def __new__(cls, cluster_sizes: Iterable[int],
                cluster_links: Optional[Iterable[tuple[int, int]]] = None,
                global_channel_name: str = "backbone") -> "MultiHopTopology":
        sizes = list(cluster_sizes)
        if not sizes:
            raise TopologyError("need at least one cluster")
        for size in sizes:
            if size < 4:
                raise TopologyError(
                    f"every cluster needs at least 4 nodes (3f+1), got {size}")
        clusters = []
        next_id = 0
        for index, size in enumerate(sizes):
            node_ids = tuple(range(next_id, next_id + size))
            clusters.append(Cluster(index=index, node_ids=node_ids,
                                    channel_name=f"cluster{index}"))
            next_id += size
        if cluster_links is None:
            count = len(sizes)
            links = tuple((i, (i + 1) % count) for i in range(count)) if count > 1 else ()
        else:
            links = tuple(tuple(sorted(link)) for link in cluster_links)
        instance = super().__new__(cls)
        Topology.__init__(instance, clusters=tuple(clusters),
                          global_channel_name=global_channel_name,
                          cluster_links=links)
        return instance

    def __init__(self, cluster_sizes: Iterable[int],
                 cluster_links: Optional[Iterable[tuple[int, int]]] = None,
                 global_channel_name: str = "backbone") -> None:
        pass
