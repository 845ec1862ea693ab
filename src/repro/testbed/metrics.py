"""Run metrics: latency, throughput (TPM), message/channel overheads.

The paper reports consensus *latency* in seconds and *throughput* in
transactions per minute (TPM); component experiments report latency as a
function of parallelism or proposal size.  These records carry everything the
benchmark harness needs to print a paper-style row, plus the network trace
aggregates that back the overhead analysis.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Optional


def chain_digest(previous: str, epoch_digest: str) -> str:
    """Fold one epoch's block digest into a running ledger digest.

    The canonical chaining rule shared by the streaming runner (which builds
    the ledger digest incrementally) and the ledger-continuity invariant
    checker (which rebuilds it from the per-epoch records to prove no epoch
    was skipped or reordered across scenario phases).
    """
    return hashlib.sha256(f"{previous}|{epoch_digest}".encode()).hexdigest()


@dataclass
class ConsensusRunResult:
    """Outcome of one consensus run (one epoch) on the testbed."""

    protocol: str
    batched: bool
    num_nodes: int
    decided: bool
    latency_s: float
    per_node_latency_s: dict[int, float] = field(default_factory=dict)
    committed_transactions: int = 0
    block_digest: str = ""
    #: digest of each honest node's decided block (agreement evidence)
    per_node_digest: dict[int, str] = field(default_factory=dict)
    channel_accesses: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    collisions: int = 0
    crypto_seconds: float = 0.0
    sim_events: int = 0
    seed: int = 0

    @property
    def throughput_tpm(self) -> float:
        """Committed transactions per minute."""
        if not self.decided or self.latency_s <= 0:
            return 0.0
        return self.committed_transactions / (self.latency_s / 60.0)


@dataclass
class ComponentRunResult:
    """Outcome of one broadcast-protocol or ABA component experiment."""

    component: str
    batched: bool
    num_nodes: int
    parallelism: int
    completed: bool
    latency_s: float
    proposal_packets: int = 1
    serial_instances: int = 0
    channel_accesses: int = 0
    bytes_sent: int = 0
    collisions: int = 0
    rounds_executed: int = 0
    per_node_channel_accesses: dict[int, int] = field(default_factory=dict)
    seed: int = 0

    @property
    def channel_accesses_per_node(self) -> float:
        """Average channel accesses per node (the Table I quantity)."""
        if not self.per_node_channel_accesses:
            return 0.0
        return statistics.fmean(self.per_node_channel_accesses.values())


def percentile(sample: list[float], fraction: float) -> float:
    """Deterministic nearest-rank percentile of ``sample``.

    ``fraction`` in [0, 1]; an empty sample yields NaN.  Nearest-rank
    (``ceil(fraction * N)``-th smallest, no interpolation) keeps streaming
    summaries byte-stable across platforms.
    """
    if not sample:
        return float("nan")
    ordered = sorted(sample)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


@dataclass
class EpochRecord:
    """Per-epoch outcome of a streaming run (all times virtual seconds)."""

    epoch: int
    start_s: float
    decide_s: float
    latency_s: float
    committed_transactions: int
    block_digest: str
    #: deepest per-node mempool backlog at proposal time (transactions)
    backlog_max: int
    #: mean per-node mempool backlog at proposal time (transactions)
    backlog_mean: float


@dataclass
class CommitteeRecord:
    """The committee one streaming epoch ran with (dynamic membership).

    One record per epoch when a membership schedule is active.  ``members``
    is the sorted committee the epoch was proposed to; ``joined`` /
    ``departed`` / ``crashed`` are the *net* changes applied at the epoch's
    entry boundary (a node joining and leaving within one window appears in
    neither), and ``reconfigured`` marks boundaries that actually rebuilt
    the committee's keys and transports.
    """

    epoch: int
    members: tuple
    joined: tuple = ()
    departed: tuple = ()
    crashed: tuple = ()
    reconfigured: bool = False

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class PhaseRecord:
    """Per-phase outcome of a streaming run under a scenario pack.

    One record per :class:`~repro.testbed.scenario_packs.ScenarioPhase`, with
    epochs attributed to the phase containing their *start* time.
    ``throughput_tps`` is committed transactions over the span from the first
    attributed epoch's start to the last one's decide (boundary-robust: a
    phase is not charged for an epoch that started under the previous
    phase's conditions); ``adversary_drops`` is the delta of the network
    trace's drop counter across the phase window, so partition cuts and
    drop-rate faults both show up.  ``end_s`` is ``inf`` for the final phase
    (it extends to the end of the stream).
    """

    index: int
    name: str
    start_s: float
    end_s: float
    degraded: bool
    epochs: int
    committed_transactions: int
    throughput_tps: float
    p50_latency_s: float
    adversary_drops: int


@dataclass
class ClassRecord:
    """Per-transaction-class outcome of an ingress streaming run.

    One record per :class:`~repro.testbed.ingress.TxClassSpec`, aggregated
    over every gateway.  Dispositions conserve transactions::

        offered == admitted + shed + deferred_pending + duplicates

    (``deferred_pending`` counts transactions still parked in defer queues
    when the stream ended; released ones are in ``admitted``).  Latency
    percentiles are **client-observed** submit->commit times in virtual
    seconds (nearest-rank over every committed transaction of the class,
    measured from the client's original submission even when the gate
    deferred it); NaN when the class committed nothing.
    """

    name: str
    priority: int
    offered: int
    admitted: int
    shed: int
    deferred_pending: int
    duplicates: int
    committed: int
    p50_latency_s: float
    p90_latency_s: float
    p99_latency_s: float


@dataclass
class StreamingRunResult:
    """Outcome of a multi-epoch streaming (sustained-load) run.

    Units: every time is **simulated virtual seconds**; ``throughput_tps``
    is committed transactions per virtual second (the paper's TPM divided by
    60); backlog depths are transactions.  ``decided`` means every targeted
    epoch was decided by every honest node within the scenario timeout.
    """

    protocol: str
    num_nodes: int
    epochs_target: int
    epochs_completed: int
    decided: bool
    pipeline_depth: int
    offered_load_tps: float
    per_epoch: list[EpochRecord] = field(default_factory=list)
    committed_transactions: int = 0
    #: virtual time at which the last epoch decided (NaN on timeout)
    duration_s: float = float("nan")
    #: running SHA-256 chain over the per-epoch block digests (one hash,
    #: O(1) memory, pins the whole decided history)
    ledger_digest: str = ""
    arrivals_generated: int = 0
    arrivals_admitted: int = 0
    arrivals_dropped_capacity: int = 0
    arrivals_dropped_duplicate: int = 0
    channel_accesses: int = 0
    bytes_sent: int = 0
    collisions: int = 0
    sim_events: int = 0
    seed: int = 0
    #: name of the scenario pack driving time-varying conditions ("" = none)
    scenario: str = ""
    #: per-phase summaries when a scenario pack was active (else empty)
    phases: list[PhaseRecord] = field(default_factory=list)
    #: per-epoch committees when a membership schedule was active (else empty)
    committees: list[CommitteeRecord] = field(default_factory=list)
    #: per-class ingress dispositions + client-observed latency percentiles
    #: when an ingress spec was active (else empty)
    classes: list[ClassRecord] = field(default_factory=list)

    @property
    def shed_total(self) -> int:
        """Transactions the admission gate shed, summed over classes."""
        return sum(record.shed for record in self.classes)

    @property
    def reconfigurations(self) -> int:
        """How many epoch boundaries actually changed the committee."""
        return sum(1 for record in self.committees if record.reconfigured)

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per virtual second, over the whole stream."""
        if not self.epochs_completed or not self.duration_s \
                or self.duration_s != self.duration_s:
            return 0.0
        return self.committed_transactions / self.duration_s

    @property
    def epoch_latencies_s(self) -> list:
        """Latency sample of the decided epochs (virtual seconds)."""
        return [record.latency_s for record in self.per_epoch]

    @property
    def p50_latency_s(self) -> float:
        """Median epoch latency (nearest-rank, virtual seconds)."""
        return percentile(self.epoch_latencies_s, 0.50)

    @property
    def p90_latency_s(self) -> float:
        """90th-percentile epoch latency (nearest-rank, virtual seconds)."""
        return percentile(self.epoch_latencies_s, 0.90)

    @property
    def max_backlog(self) -> int:
        """Deepest backlog any node showed at any proposal time."""
        return max((record.backlog_max for record in self.per_epoch),
                   default=0)


@dataclass
class MultiHopRunResult:
    """Outcome of a multi-hop (clustered) consensus run."""

    protocol: str
    batched: bool
    num_clusters: int
    nodes_per_cluster: int
    decided: bool
    latency_s: float
    local_latencies_s: dict[int, float] = field(default_factory=dict)
    committed_transactions: int = 0
    #: digest of the first honest leader's global block
    block_digest: str = ""
    #: digest of each honest leader's global block (agreement evidence)
    per_leader_digest: dict[int, str] = field(default_factory=dict)
    channel_accesses: int = 0
    bytes_sent: int = 0
    collisions: int = 0
    #: total simulator events processed (summed over shards when sharded)
    sim_events: int = 0
    seed: int = 0

    @property
    def throughput_tpm(self) -> float:
        """Committed transactions per minute across the whole network."""
        if not self.decided or self.latency_s <= 0:
            return 0.0
        return self.committed_transactions / (self.latency_s / 60.0)

    @property
    def slowest_local_latency_s(self) -> Optional[float]:
        """Latency of the slowest cluster's local consensus."""
        if not self.local_latencies_s:
            return None
        return max(self.local_latencies_s.values())
