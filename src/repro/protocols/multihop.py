"""Multi-hop (clustered) consensus: local consensus + leader-level global consensus.

Section V-B: the network is divided into clusters, each a single-hop network.
A two-phase approach -- akin to blockchain sharding -- runs local consensus in
parallel inside every cluster; once a cluster decides, a (changeable) cluster
leader carries the cluster's decided block into a *global* consensus among the
cluster leaders, which orders all clusters' proposals.  Local consensus keeps
safety and liveness as long as fewer than one third of each cluster is
Byzantine; a faulty leader can be detected and replaced by its cluster because
every cluster member knows the locally decided block.

The networking (per-cluster channels + a routed backbone channel for the
leaders) is assembled by the testbed harness; this module holds the
protocol-level pieces: leader selection and the encoding of a cluster's
contribution to the global consensus.
"""

from __future__ import annotations

import hashlib

from repro.net.topology import Cluster
from repro.protocols.base import decode_batch, encode_batch


def select_leader(cluster: Cluster, epoch: int, excluded: frozenset[int] = frozenset()) -> int:
    """Deterministically select a cluster leader for ``epoch``.

    The paper randomly selects a changeable leader; determinism (seeded by the
    epoch) keeps simulation runs reproducible while preserving the property
    that a misbehaving leader can be rotated out (pass its id in ``excluded``).

    ``excluded`` is per-call only -- a caller that rotates leaders across
    epochs must persist the exclusions itself or a rotated-out Byzantine
    leader would be re-eligible next epoch.
    """
    candidates = [node_id for node_id in cluster.node_ids if node_id not in excluded]
    if not candidates:
        raise ValueError(f"cluster {cluster.index} has no eligible leader")
    seed = int.from_bytes(
        hashlib.sha256(f"leader|{cluster.index}|{epoch}".encode()).digest(), "big")
    return candidates[seed % len(candidates)]


def encode_cluster_contribution(cluster_index: int, block: list[bytes]) -> bytes:
    """Serialise a cluster's locally decided block for the global consensus."""
    header = cluster_index.to_bytes(4, "big")
    return header + encode_batch(block)


def decode_cluster_contribution(payload: bytes) -> tuple[int, list[bytes]]:
    """Inverse of :func:`encode_cluster_contribution`."""
    if len(payload) < 4:
        raise ValueError("truncated cluster contribution")
    cluster_index = int.from_bytes(payload[:4], "big")
    return cluster_index, decode_batch(payload[4:])


def contribution_transactions(item: bytes) -> list[bytes]:
    """The transactions one globally decided item commits.

    An item that is not a well-formed cluster contribution (a Byzantine
    leader's garbage proposal) commits nothing.
    """
    try:
        _cluster, transactions = decode_cluster_contribution(item)
        return transactions
    except ValueError:
        return []
