"""Sharded multi-hop execution: per-cluster-group deployments + metric merge.

This module is the testbed half of the conservative-synchronization refactor
(:mod:`repro.net.shard` is the engine half).  A sharded multi-hop run
partitions the cluster grid into contiguous groups; each group gets its own
:class:`~repro.testbed.harness.Deployment` -- own simulator (heap, sequence
counter, RNG streams), own channels, nodes, crypto suites and transports --
built by the same assembler as the classic deployment
(:func:`repro.testbed.harness._assemble`), hence with exactly the classic
``stable_seed`` labels, so every shard-local stream is a pure function of
``(scenario, seed, shard layout)``.

Cross-shard coupling happens only on the leaders' backbone, which every shard
hosts as a :class:`~repro.net.shard.ShardBackboneChannel` mirror: the full
hop table and all leader identities are resolved identically everywhere (a
pure function of the scenario), the global crypto domain is dealt from the
same ``stable_seed(seed, "global")`` in every shard (the dealer cache makes
this cheap: each shard deals only its own clusters' domains plus the shared
global domain -- the per-shard dealer-cache key slice), local leaders attach
real MACs, and remote leaders appear only through ghost transmissions
exchanged at barrier windows.

Metric merge follows the trace-ownership rules of the mirror (transmissions,
channel accesses and collisions at the home shard; deliveries, half-duplex
misses and adversary drops at the receiving shard), so summing per-shard
traces reproduces single-channel totals; observer records are replayed in
shard order, which equals the classic cluster order because shards are
contiguous.  The classic single-heap run is the one-report case of the same
merge (:func:`merge_multihop_reports`).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import fields as dataclass_fields
from functools import partial
from typing import Any, Optional, Sequence

from repro.net.shard import (
    Lookahead,
    ShardBackboneChannel,
    ShardCsmaMac,
    ShardRunner,
    ShardSyncError,
    run_conservative,
)
from repro.net.sim import Simulator
from repro.net.trace import NetworkTrace
from repro.protocols.base import ConsensusConfig
from repro.testbed.dealer_cache import stable_seed
from repro.testbed.harness import (
    Deployment,
    Epoch,
    _assemble,
    fold_decisions,
    global_block_transactions,
    replay_cluster_decisions,
)
from repro.testbed.invariants import RunObserver
from repro.testbed.metrics import MultiHopRunResult
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import TransactionWorkload, WorkloadSpec


def partition_clusters(num_clusters: int, shards: int) -> list[list[int]]:
    """Contiguous cluster-index blocks, sizes differing by at most one."""
    if shards < 1:
        raise ShardSyncError(f"need at least one shard, got {shards}")
    if shards > num_clusters:
        raise ShardSyncError(
            f"cannot split {num_clusters} clusters into {shards} shards; "
            f"a shard needs at least one cluster")
    base, extra = divmod(num_clusters, shards)
    blocks, cursor = [], 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        blocks.append(list(range(cursor, cursor + size)))
        cursor += size
    return blocks


def merge_traces(traces: list[NetworkTrace]) -> NetworkTrace:
    """Sum per-shard traces field by field.

    Node entries are disjoint across shards (every node-side record happens
    in the node's home shard); channel entries overlap only on the backbone
    name, where the ownership rules make summation reproduce the
    single-channel totals.
    """
    merged = NetworkTrace()
    for trace in traces:
        for name, stats in trace.channels.items():
            target = merged.channels[name]
            for field in dataclass_fields(stats):
                setattr(target, field.name,
                        getattr(target, field.name) + getattr(stats, field.name))
        for node_id, stats in trace.nodes.items():
            target = merged.nodes[node_id]
            for field in dataclass_fields(stats):
                setattr(target, field.name,
                        getattr(target, field.name) + getattr(stats, field.name))
    return merged


# ---------------------------------------------------------------------------
# per-shard deployment
# ---------------------------------------------------------------------------

def build_shard_deployment(scenario: Scenario, shard_index: int,
                           cluster_indices: list[int], batched: bool,
                           seed: int
                           ) -> tuple[Deployment, ShardBackboneChannel,
                                      list[ShardCsmaMac]]:
    """Build one shard's slice of a multi-hop deployment.

    A thin wrapper over the harness's one assembler
    (:func:`repro.testbed.harness._assemble`, which
    :func:`~repro.testbed.harness.build_deployment` wraps too) that overrides
    exactly three things: the simulator is seeded per shard, only the
    clusters in ``cluster_indices`` are hosted, and the backbone is a
    :class:`~repro.net.shard.ShardBackboneChannel` mirror driven by
    :class:`~repro.net.shard.ShardCsmaMac` MACs.  Returns the deployment,
    its backbone mirror and the hosted leaders' backbone MACs.
    """
    deployment = _assemble(
        scenario, Simulator(seed=stable_seed(seed, "shard", shard_index)),
        batched, seed, hosted=cluster_indices,
        backbone_class=partial(ShardBackboneChannel, shard_index=shard_index),
        backbone_mac_class=ShardCsmaMac)
    backbone = deployment.channels[scenario.topology.global_channel_name]
    backbone_macs = [deployment.nodes[leader].interfaces["backbone"]
                     for leader in deployment.global_runtimes]
    return deployment, backbone, backbone_macs


# ---------------------------------------------------------------------------
# per-shard runner
# ---------------------------------------------------------------------------

class _MultiHopShardRunner(ShardRunner):
    """One shard of a multi-hop consensus run.

    Drives one :class:`~repro.testbed.harness.Epoch` on the shard's
    deployment: its ``feed`` is the per-event ``poll`` hook, its ``done`` the
    shard-local stop condition, and ``finish()`` sends its report home.
    """

    def __init__(self, shard_index: int, cluster_indices: list[int],
                 protocol: str, scenario: Scenario, batched: bool, seed: int,
                 config: Optional[ConsensusConfig],
                 workload_spec: WorkloadSpec) -> None:
        self.deployment, backbone, backbone_macs = build_shard_deployment(
            scenario, shard_index, cluster_indices, batched, seed)
        self.epoch = Epoch(self.deployment, protocol, config)
        # The caller's observer lives in the coordinating process; proposals
        # are recorded here (picklable records) and replayed there.
        self.recorder = RunObserver()
        self.epoch.propose(TransactionWorkload(workload_spec, seed=seed),
                           observer=self.recorder)
        super().__init__(shard_index, self.deployment.sim, backbone,
                         backbone_macs, difs_s=scenario.csma.difs_s,
                         poll=self.epoch.feed, done=self.epoch.done)

    def finish(self) -> dict[str, Any]:
        """The shard's report; the deployment is closed once it is built
        (here or in the worker process that hosts the shard)."""
        with closing(self.deployment):
            return {"shard": self.shard_index,
                    "proposals": self.recorder.proposals,
                    **self.epoch.report()}


# ---------------------------------------------------------------------------
# entry point (called by run_multihop_consensus when shards is set)
# ---------------------------------------------------------------------------

def run_sharded_multihop_consensus(protocol: str, scenario: Scenario,
                                   shards: int, shard_workers: int = 1,
                                   batched: bool = True, seed: int = 0,
                                   config: Any = None,
                                   workload_spec: Optional[WorkloadSpec] = None,
                                   observer: Optional[RunObserver] = None,
                                   shard_stats: Optional[list] = None
                                   ) -> MultiHopRunResult:
    """Run the two-phase multi-hop consensus under conservative sharding.

    The result is a pure function of ``(protocol, scenario, workload,
    batched, seed, shards)`` -- ``shard_workers`` only chooses how many
    processes execute the (identical) barrier schedule, so any worker count
    reproduces every metric bit for bit.

    Pass a list as ``shard_stats`` to receive one dict per shard
    (``shard``, ``clusters``, ``events``) describing how the event load
    split -- diagnostics the merged result deliberately flattens away.
    """
    spec = workload_spec or WorkloadSpec()
    blocks = partition_clusters(scenario.topology.num_clusters, shards)

    def factory(shard_index: int) -> _MultiHopShardRunner:
        return _MultiHopShardRunner(shard_index, blocks[shard_index], protocol,
                                    scenario, batched, seed, config, spec)

    lookahead = Lookahead(difs_s=scenario.csma.difs_s,
                          rx_turnaround_s=scenario.radio.rx_turnaround_s)
    decided, _stop_time, finals = run_conservative(
        factory, shards, lookahead, scenario.timeout_s, workers=shard_workers)

    # Shards hold contiguous cluster blocks, so folding reports in shard
    # order reproduces the classic (cluster-order) record stream.
    finals = sorted(finals, key=lambda final: final["shard"])
    if shard_stats is not None:
        shard_stats.extend(
            {"shard": final["shard"], "clusters": list(blocks[final["shard"]]),
             "events": final["events"]}
            for final in finals)
    if observer is not None:
        for final in finals:
            for proposal in final["proposals"]:
                observer.record_proposal(proposal.node_id,
                                         proposal.transactions,
                                         proposal.domain, kind=proposal.kind)
    return merge_multihop_reports(finals, protocol, scenario, batched, seed,
                                  decided, observer=observer)


def merge_multihop_reports(reports: Sequence[dict[str, Any]], protocol: str,
                           scenario: Scenario, batched: bool, seed: int,
                           decided: bool,
                           observer: Optional[RunObserver] = None
                           ) -> MultiHopRunResult:
    """Fold :meth:`~repro.testbed.harness.Epoch.report` dicts (one for a
    classic run, one per shard in shard order otherwise) into the run
    result, replaying every decision into ``observer``."""
    trace = merge_traces([report["trace"] for report in reports])
    local_latencies: dict[int, float] = {}
    for report in reports:
        local_latencies.update(report["local_latencies"])
        if observer is not None:
            replay_cluster_decisions(observer, scenario.topology,
                                     report["cluster_decisions"])
    decide_times, per_leader_digest, digest, committed = fold_decisions(
        [witness for report in reports for witness in report["decisions"]],
        global_block_transactions, observer, domain="global")
    return MultiHopRunResult(
        protocol=protocol, batched=batched,
        num_clusters=scenario.topology.num_clusters,
        nodes_per_cluster=scenario.topology.clusters[0].size,
        decided=decided,
        latency_s=max(decide_times.values(), default=float("nan")),
        local_latencies_s=local_latencies,
        committed_transactions=len(committed),
        block_digest=digest,
        per_leader_digest=per_leader_digest,
        channel_accesses=trace.total_channel_accesses,
        bytes_sent=trace.total_bytes_sent,
        collisions=trace.total_collisions,
        sim_events=sum(report["events"] for report in reports),
        seed=seed)
