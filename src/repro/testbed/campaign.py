"""Scenario campaign engine: fault-injection sweeps with conformance checks.

The paper's evaluation (Section VI-C) covers two deployments and two injected
fault types; this engine generalises the testbed into a deterministic matrix
sweep over

``{protocol} x {topology} x {fault model} x {workload flavor} x {seed}``

where every cell runs one full consensus epoch -- or, for streaming cells
(``CampaignCell.stream_epochs`` > 0), a multi-epoch stream with mid-stream
faults -- through the harness entry points and is judged against the
protocols' safety/liveness contract
(:mod:`repro.testbed.invariants`): agreement, total order, validity, and the
fault model's decision expectation (liveness, or *non*-decision under quorum
loss).

Every cell is replayable in isolation: its outcome is a pure function of the
cell description (the per-cell seed is derived with
:func:`repro.testbed.dealer_cache.stable_seed` from the campaign base seed and
the cell coordinates), which is what makes the CLI's ``CAMPAIGN.json`` artifact
byte-identical across re-runs and lets a red cell be re-run under a debugger
with ``scripts/run_campaign.py --only <cell-id>``.

Which combinations of hop count, stream length, ``epoch-crash`` and churn
can run is stated once, in :func:`repro.testbed.harness.check_composition`,
the fence every harness entry point calls; :class:`CampaignCell` calls it
when it is built, so a bad sweep is refused here, not inside a campaign
worker.

Fault models are small composable builders over :class:`Scenario`; to add
one, register a :class:`FaultModel` in :data:`FAULT_MODELS` (see TESTING.md).
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Optional

from repro.net.adversary import AsyncAdversary, LinkFaultSpec, PartitionSpec
from repro.net.topology import faults_tolerated
from repro.protocols.multihop import select_leader
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.dealer_cache import stable_seed
from repro.testbed.harness import (
    DeploymentError,
    check_composition,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.ingress import INGRESS_PROFILES, ingress_profile
from repro.testbed.invariants import (
    InvariantVerdict,
    RunObserver,
    check_all,
    check_ingress_conservation,
    check_ledger_continuity,
    check_ledger_continuity_across_reconfig,
    check_liveness_under_bounded_churn,
    check_scenario_recovery,
)
from repro.testbed.scenario_packs import available_packs, load_pack
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec, ChurnSpec, WorkloadSpec

#: protocols swept by the default campaigns (one per family)
CAMPAIGN_PROTOCOLS = ("honeybadger-sc", "beat", "dumbo-sc")

#: workload flavors cycled through the default matrices
CAMPAIGN_FLAVORS = ("uniform", "task-allocation", "telemetry")


# ---------------------------------------------------------------------------
# topology axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologySpec:
    """One point on the campaign's topology axis.

    ``profile`` selects the substrate: ``"paper"`` is the LoRa + STM32
    testbed of Section VI-C; ``"scale"`` is the gateway-class large-n
    profile (:meth:`Scenario.scale_single_hop`), which is what makes
    n >= 31 campaign cells finish -- the paper's radio physically saturates
    above n ~ 16.
    """

    kind: str  # "single-hop" | "multi-hop"
    num_nodes: int = 0
    num_clusters: int = 0
    cluster_size: int = 0
    profile: str = "paper"  # "paper" | "scale"
    #: > 0 runs the cell on the sharded simulator (conservative
    #: synchronization, one event loop per cluster block); 0 keeps the
    #: classic single-heap path.  Labels and cell ids are unaffected.
    shards: int = 0

    def __post_init__(self) -> None:
        if self.profile not in ("paper", "scale"):
            raise ValueError(f"unknown topology profile {self.profile!r}; "
                             f"known: paper, scale")
        if self.shards and not self.is_multi_hop:
            raise ValueError("shards require a multi-hop topology")

    @classmethod
    def single(cls, num_nodes: int, profile: str = "paper") -> "TopologySpec":
        """A single-hop deployment of ``num_nodes`` nodes."""
        return cls(kind="single-hop", num_nodes=num_nodes, profile=profile)

    @classmethod
    def multi(cls, num_clusters: int, cluster_size: int,
              profile: str = "paper", shards: int = 0) -> "TopologySpec":
        """A clustered multi-hop deployment."""
        return cls(kind="multi-hop", num_clusters=num_clusters,
                   cluster_size=cluster_size, profile=profile, shards=shards)

    @property
    def is_multi_hop(self) -> bool:
        """True for clustered deployments."""
        return self.kind == "multi-hop"

    @property
    def label(self) -> str:
        """Compact identifier used in cell ids (``sh4``, ``mh4x4``,
        ``scale-sh31``)."""
        if self.is_multi_hop:
            base = f"mh{self.num_clusters}x{self.cluster_size}"
        else:
            base = f"sh{self.num_nodes}"
        return base if self.profile == "paper" else f"scale-{base}"

    def base_scenario(self) -> Scenario:
        """The fault-free scenario for this topology."""
        if self.profile == "scale":
            if self.is_multi_hop:
                return Scenario.scale_multi_hop(self.num_clusters,
                                                self.cluster_size)
            return Scenario.scale_single_hop(self.num_nodes)
        if self.is_multi_hop:
            return Scenario.multi_hop(self.num_clusters, self.cluster_size)
        return Scenario.single_hop(self.num_nodes)


# ---------------------------------------------------------------------------
# fault-model axis
# ---------------------------------------------------------------------------

def _cluster_victims(scenario: Scenario, per_cluster: int) -> list[int]:
    """Deterministically pick fault victims.

    Single-hop: the ``per_cluster`` highest node ids.  Multi-hop: the
    ``per_cluster`` highest *non-leader* ids of every cluster (epoch-0
    leaders must stay honest for the two-phase construction to have a global
    domain; only the quorum-loss model targets leaders, directly).
    """
    victims: list[int] = []
    for cluster in scenario.topology.clusters:
        pool = list(cluster.node_ids)
        if scenario.is_multi_hop:
            pool.remove(select_leader(cluster, epoch=0))
        victims.extend(sorted(pool, reverse=True)[:per_cluster])
    return victims


def _assign(scenario: Scenario, strategy: str, per_cluster: Optional[int] = None,
            **spec_overrides) -> Scenario:
    """Assign ``strategy`` to up to ``f`` nodes per consensus domain."""
    if per_cluster is None:
        per_cluster = faults_tolerated(scenario.topology.clusters[0].size)
    victims = _cluster_victims(scenario, per_cluster)
    merged = dict(scenario.byzantine.assignments)
    merged.update({node_id: strategy for node_id in victims})
    return scenario.with_byzantine(ByzantineSpec(assignments=merged,
                                                 **spec_overrides))


def _fault_none(scenario: Scenario) -> Scenario:
    return scenario


def _fault_crash(scenario: Scenario) -> Scenario:
    return _assign(scenario, "crash")


def _fault_late_crash(scenario: Scenario) -> Scenario:
    return _assign(scenario, "late-crash", late_crash_at_s=15.0)


def _fault_garbage(scenario: Scenario) -> Scenario:
    return _assign(scenario, "garbage-proposer")


def _fault_equivocate(scenario: Scenario) -> Scenario:
    return _assign(scenario, "equivocating-proposer")


def _fault_slow_links(scenario: Scenario) -> Scenario:
    return _assign(scenario, "slow-links", per_cluster=1)


def _fault_lossy(scenario: Scenario) -> Scenario:
    return scenario.with_link_faults(LinkFaultSpec(
        drop_rate=0.05, duplicate_rate=0.05, reorder_jitter_s=0.2))


def _fault_partition_heal(scenario: Scenario) -> Scenario:
    if scenario.is_multi_hop:
        # Partition the leader backbone; cluster channels stay healthy.
        leaders = [select_leader(cluster, epoch=0)
                   for cluster in scenario.topology.clusters]
        half = len(leaders) // 2
        groups = (frozenset(leaders[:half]), frozenset(leaders[half:]))
        return scenario.with_partition(PartitionSpec(groups=groups, heal_s=40.0))
    nodes = list(range(scenario.num_nodes))
    half = len(nodes) // 2
    groups = (frozenset(nodes[:half]), frozenset(nodes[half:]))
    return scenario.with_partition(PartitionSpec(groups=groups, heal_s=25.0))


def _fault_stream_crash_epoch(scenario: Scenario) -> Scenario:
    """f nodes per domain crash *at epoch 2* of a streaming run (they
    participate honestly in earlier epochs).  Streaming cells only."""
    return _assign(scenario, "epoch-crash")


def _fault_churn_rate(scenario: Scenario) -> Scenario:
    """Poisson join/leave churn over a streaming run (one standby node kept
    outside the initial committee so joins have somewhere to draw from).
    Streaming single-hop cells only."""
    return scenario.with_membership(ChurnSpec(
        initial_size=scenario.num_nodes - 1,
        join_rate=0.02, leave_rate=0.02, horizon_s=150.0))


def _fault_crash_replace(scenario: Scenario) -> Scenario:
    """One member permanently crashes mid-stream and a standby node is
    enrolled in its place at the next epoch boundary.  Streaming single-hop
    cells only."""
    return scenario.with_membership(ChurnSpec(
        initial_size=scenario.num_nodes - 1,
        crash_times=(40.0,), horizon_s=150.0))


def _fault_quorum_loss(scenario: Scenario) -> Scenario:
    if scenario.is_multi_hop:
        # Crash f_global + 1 leaders: clusters still decide locally, but the
        # leader group can never assemble a global block.
        leaders = [select_leader(cluster, epoch=0)
                   for cluster in scenario.topology.clusters]
        num_crash = faults_tolerated(len(leaders)) + 1
        assignments = {leader: "crash" for leader in leaders[:num_crash]}
        return scenario.with_byzantine(ByzantineSpec(assignments=assignments))
    num_crash = faults_tolerated(scenario.num_nodes) + 1
    victims = sorted(range(scenario.num_nodes), reverse=True)[:num_crash]
    return scenario.with_byzantine(ByzantineSpec.crash_nodes(victims))


@dataclass(frozen=True)
class FaultModel:
    """One point on the campaign's fault axis."""

    name: str
    description: str
    apply: Callable[[Scenario], Scenario]
    #: whether honest nodes are expected to decide under this fault
    expect_decision: bool = True
    #: domains whose non-decision is asserted when ``expect_decision`` is
    #: False (None = every domain); only "global" makes sense for multi-hop
    #: quorum loss, where healthy clusters still decide locally.
    affected_domains_multihop: Optional[frozenset] = None
    #: virtual-time budget multiplier (partitions and loss need slack)
    timeout_scale: float = 1.0
    #: True for models that only make sense on streaming cells (their fault
    #: fires at an epoch index or boundary): matrix-filter data for
    #: :data:`ONE_EPOCH_FAULTS`; the harness fence refuses such a cell
    streaming_only: bool = False

    def affected_domains(self, multi_hop: bool) -> Optional[set]:
        """Domains scoped by the non-decision expectation for this topology."""
        if not multi_hop or self.affected_domains_multihop is None:
            return None
        return set(self.affected_domains_multihop)


FAULT_MODELS: dict[str, FaultModel] = {
    model.name: model for model in (
        FaultModel("none", "fault-free baseline", _fault_none),
        FaultModel("crash-f", "f fail-stop nodes per domain from the start",
                   _fault_crash),
        FaultModel("late-crash", "f nodes per domain go silent mid-protocol",
                   _fault_late_crash, timeout_scale=1.5),
        FaultModel("garbage", "f undecodable proposals per domain",
                   _fault_garbage),
        FaultModel("equivocate", "f equivocating proposers per domain",
                   _fault_equivocate),
        FaultModel("slow-links", "adversarial delay on one node's links",
                   _fault_slow_links, timeout_scale=2.0),
        FaultModel("lossy", "5% drop + 5% duplication + reordering on every link",
                   _fault_lossy, timeout_scale=2.0),
        FaultModel("partition-heal", "two-way partition healing mid-run",
                   _fault_partition_heal, timeout_scale=2.0),
        FaultModel("quorum-loss", "f+1 crashes: liveness must fail, safety hold",
                   _fault_quorum_loss, expect_decision=False,
                   affected_domains_multihop=frozenset({"global"})),
        FaultModel("stream-crash-epoch",
                   "f nodes per domain go fail-stop at epoch 2 of a stream",
                   _fault_stream_crash_epoch, timeout_scale=1.5,
                   streaming_only=True),
        FaultModel("node-churn-rate",
                   "Poisson join/leave churn reconfiguring the committee at "
                   "epoch boundaries",
                   _fault_churn_rate, timeout_scale=2.0, streaming_only=True),
        FaultModel("permanent-crash-with-replacement",
                   "a member permanently crashes mid-stream and a standby "
                   "replaces it at the next boundary",
                   _fault_crash_replace, timeout_scale=2.0,
                   streaming_only=True),
    )
}

#: the fault models that put a cell under a membership schedule
CHURN_FAULTS = ("node-churn-rate", "permanent-crash-with-replacement")

#: the fault models a one-epoch cell can run (the rest fire at an epoch
#: index or an epoch boundary)
ONE_EPOCH_FAULTS = tuple(name for name, model in FAULT_MODELS.items()
                         if not model.streaming_only)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignCell:
    """One fully specified campaign run: the replayable run document.

    ``stream_epochs`` = 0 runs the classic single-epoch cell through
    ``run_consensus`` / ``run_multihop_consensus``; > 0 runs a streaming
    cell of that many epochs through ``run_streaming_consensus`` (open-loop
    arrivals, per-epoch invariant domains), which is how mid-stream faults
    -- a crash at epoch k, a partition healing across epochs -- are put
    under conformance checking.  ``scenario`` names a shipped scenario pack
    (``repro.testbed.scenario_packs``) of time-varying network phases to
    drive during a streaming cell; scenario cells additionally gate on the
    ledger-continuity and degradation/recovery invariants and record
    per-phase metrics in their outcome.  ``ingress`` names a canned
    :data:`repro.testbed.ingress.INGRESS_PROFILES` entry to install a
    client-facing ingress (class-marked arrivals, priority mempools,
    admission gate) in front of a streaming cell; ingress cells run at
    :data:`INGRESS_STREAM_RATE_TPS` offered load, additionally gate on the
    transaction-conservation invariant and record per-class dispositions
    in their outcome.

    A cell is checked when it is built: its names must be known, and its
    faulted scenario must pass :func:`repro.testbed.harness.check_composition`
    at its stream length (a fence refusal becomes a ``ValueError`` naming
    the fault model), so a cell that is built is a cell a worker can run.
    """

    protocol: str
    topology: TopologySpec
    fault: str
    flavor: str = "uniform"
    seed: int = 0
    stream_epochs: int = 0
    scenario: str = ""
    ingress: str = ""

    def __post_init__(self) -> None:
        if self.fault not in FAULT_MODELS:
            raise ValueError(f"unknown fault model {self.fault!r}; "
                             f"known: {sorted(FAULT_MODELS)}")
        if self.stream_epochs < 0:
            raise ValueError(
                f"stream_epochs must be >= 0, got {self.stream_epochs}")
        if (self.scenario or self.ingress) and not self.stream_epochs:
            raise ValueError(
                f"scenario pack {self.scenario!r} / ingress profile "
                f"{self.ingress!r} need a streaming cell; "
                f"set stream_epochs > 0")
        if self.scenario and self.scenario not in available_packs():
            raise ValueError(f"unknown scenario pack {self.scenario!r}; "
                             f"shipped: {list(available_packs())}")
        if self.ingress and self.ingress not in INGRESS_PROFILES:
            raise ValueError(f"unknown ingress profile {self.ingress!r}; "
                             f"known: {sorted(INGRESS_PROFILES)}")
        faulted = FAULT_MODELS[self.fault].apply(
            self.topology.base_scenario())
        # a stream takes either hop count; cells stream unpipelined
        multi_hop = None if self.stream_epochs else self.topology.is_multi_hop
        try:
            check_composition(faulted, "run_cell", multi_hop=multi_hop,
                              epochs=self.stream_epochs or 1)
        except DeploymentError as error:
            raise ValueError(
                f"fault model {self.fault!r}: {error}") from error

    @property
    def cell_id(self) -> str:
        """Stable human-readable identifier (also the replay key)."""
        stream = f"|stream{self.stream_epochs}" if self.stream_epochs else ""
        scenario = f"|scn:{self.scenario}" if self.scenario else ""
        ingress = f"|ing:{self.ingress}" if self.ingress else ""
        return (f"{self.protocol}|{self.topology.label}|{self.fault}"
                f"|{self.flavor}|s{self.seed}{stream}{scenario}{ingress}")

    def seeded(self, base_seed: int, seed_index: int = 0) -> "CampaignCell":
        """This cell with its seed derived from ``base_seed`` and its own
        fields -- the one seed rule of every matrix.

        The salt after the coordinates is the first that applies of the
        ingress profile, the scenario pack, a churn fault, the stream
        length, and ``seed_index`` (a :class:`CampaignSpec` seed axis).
        """
        epochs = self.stream_epochs
        if self.ingress:
            salt: tuple = ("ingress", self.ingress, epochs)
        elif self.scenario:
            salt = ("scenario", self.scenario, epochs)
        elif self.fault in CHURN_FAULTS:
            salt = ("churn", epochs)
        elif epochs:
            salt = ("stream", epochs)
        else:
            salt = (seed_index,)
        return replace(self, seed=stable_seed(
            base_seed, self.protocol, self.topology.label, self.fault,
            self.flavor, *salt))


@dataclass
class CellOutcome:
    """Result and conformance verdicts of one campaign cell."""

    cell_id: str
    protocol: str
    topology: str
    fault: str
    flavor: str
    seed: int
    expect_decision: bool
    decided: bool
    ok: bool
    latency_s: Optional[float]
    committed_transactions: int
    block_digest: str
    bytes_sent: int
    channel_accesses: int
    collisions: int
    invariants: list[InvariantVerdict] = field(default_factory=list)
    scenario: str = ""
    phases: list[dict] = field(default_factory=list)
    #: per-epoch committee trail for cells under a membership-churn fault
    #: (empty otherwise)
    committees: list[dict] = field(default_factory=list)
    ingress: str = ""
    #: per-class admission dispositions + client-observed latency
    #: percentiles for ingress cells (empty otherwise)
    ingress_classes: list[dict] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        """JSON-stable representation (no wall-clock, no floats-as-NaN)."""
        return asdict(self)


@dataclass(frozen=True)
class CampaignSpec:
    """A cartesian campaign matrix (custom campaigns build one directly)."""

    protocols: tuple[str, ...] = CAMPAIGN_PROTOCOLS
    topologies: tuple[TopologySpec, ...] = (TopologySpec.single(4),)
    faults: tuple[str, ...] = ONE_EPOCH_FAULTS
    flavors: tuple[str, ...] = ("uniform",)
    seeds: tuple[int, ...] = (0,)
    base_seed: int = 0

    def cells(self) -> list[CampaignCell]:
        """The full cartesian matrix, seeded by :meth:`CampaignCell.seeded`."""
        return [CampaignCell(protocol, topology, fault, flavor).seeded(
                    self.base_seed, seed_index)
                for protocol in self.protocols
                for topology in self.topologies
                for fault in self.faults
                for flavor in self.flavors
                for seed_index in self.seeds]


#: the hand-picked quick cells after the one-epoch matrix, one
#: :class:`CampaignCell` keyword set per row, unseeded (:func:`default_cells`
#: builds and seeds them)
QUICK_CELLS: tuple[dict, ...] = (
    # large n: every protocol family at n=31 single-hop plus the 8x8
    # clustered deployment, fault-free and under crash faults (the scale
    # profile keeps them a few seconds each)
    dict(protocol="honeybadger-sc",
         topology=TopologySpec.single(31, profile="scale"), fault="none"),
    dict(protocol="honeybadger-sc",
         topology=TopologySpec.multi(8, 8, profile="scale"), fault="none"),
    dict(protocol="beat", topology=TopologySpec.single(31, profile="scale"),
         fault="crash-f"),
    dict(protocol="dumbo-sc",
         topology=TopologySpec.single(31, profile="scale"), fault="garbage"),
    # streams: mid-stream faults (a crash at epoch 2, a partition healing
    # across epochs) plus fault-free single- and multi-hop streams, each
    # judged per epoch by the invariant checkers
    dict(protocol="honeybadger-sc", topology=TopologySpec.single(4),
         fault="stream-crash-epoch", stream_epochs=4),
    dict(protocol="beat", topology=TopologySpec.single(4),
         fault="partition-heal", flavor="telemetry", stream_epochs=4),
    dict(protocol="dumbo-sc", topology=TopologySpec.single(4), fault="none",
         flavor="task-allocation", stream_epochs=3),
    dict(protocol="honeybadger-sc", topology=TopologySpec.multi(4, 4),
         fault="none", stream_epochs=2),
    # scenario packs: time-varying degradation (degraded middle phases,
    # healed tail), additionally judged by the ledger-continuity and
    # degradation/recovery invariants
    dict(protocol="honeybadger-sc", topology=TopologySpec.single(4),
         fault="none", stream_epochs=10, scenario="variable-link"),
    dict(protocol="beat", topology=TopologySpec.single(4), fault="none",
         flavor="telemetry", stream_epochs=12, scenario="burst-loss"),
    dict(protocol="dumbo-sc", topology=TopologySpec.single(4), fault="none",
         flavor="task-allocation", stream_epochs=7,
         scenario="intermittent-connectivity"),
    # membership churn (join/leave churn, permanent crash with standby
    # replacement), additionally gated on the reconfiguration invariants
    # (check_ledger_continuity_across_reconfig,
    # check_liveness_under_bounded_churn)
    dict(protocol="honeybadger-sc", topology=TopologySpec.single(6),
         fault="node-churn-rate", stream_epochs=10),
    dict(protocol="beat", topology=TopologySpec.single(5),
         fault="permanent-crash-with-replacement", flavor="telemetry",
         stream_epochs=8),
    # ingress: the client-facing ingress (class-marked arrivals, priority
    # mempools, admission gate) at an offered load past the scale profile's
    # saturation point, additionally gated on transaction conservation
    # (check_ingress_conservation); alone, on a multi-hop topology and
    # under both churn faults (a departed gateway's pooled transactions
    # move to the survivors with their class and fee marks)
    dict(protocol="honeybadger-sc",
         topology=TopologySpec.single(4, profile="scale"), fault="none",
         stream_epochs=8, ingress="three-class-shed"),
    dict(protocol="beat", topology=TopologySpec.single(4, profile="scale"),
         fault="stream-crash-epoch", stream_epochs=8,
         ingress="three-class-defer"),
    dict(protocol="honeybadger-sc", topology=TopologySpec.multi(4, 4),
         fault="none", stream_epochs=3, ingress="three-class-shed"),
    # paper profile: the scale profile's 8 epochs end before the crash fires
    dict(protocol="beat", topology=TopologySpec.single(5),
         fault="permanent-crash-with-replacement", stream_epochs=8,
         ingress="three-class-defer"),
    dict(protocol="honeybadger-sc", topology=TopologySpec.single(6),
         fault="node-churn-rate", stream_epochs=10,
         ingress="three-class-shed"),
)

#: the matrices full mode adds (their ``base_seed`` is replaced by the
#: campaign's): larger single-hop deployments with a second seed; the
#: large-n sweep over the start-state fault models; and the largest grids
#: on the sharded simulator (one shard per cluster).  Classic runs those
#: too, in one process (32x32 peaks near 380 MiB); these cells sweep the
#: sharded engine at scale.  16x16 also runs under crash faults; 32x32
#: (1024 nodes, ~1.6M events) stays fault-free to keep the full campaign's
#: wall clock bounded.
FULL_SPECS = (
    CampaignSpec(
        topologies=(TopologySpec.single(7), TopologySpec.single(10)),
        faults=("none", "crash-f", "garbage", "equivocate", "quorum-loss"),
        seeds=(0, 1)),
    CampaignSpec(
        topologies=(TopologySpec.single(64, profile="scale"),
                    TopologySpec.multi(8, 8, profile="scale"),
                    TopologySpec.multi(16, 4, profile="scale")),
        faults=("none", "crash-f", "garbage", "quorum-loss")),
    CampaignSpec(
        protocols=("honeybadger-sc", "beat"),
        topologies=(TopologySpec.multi(16, 16, profile="scale", shards=16),),
        faults=("none", "crash-f")),
    CampaignSpec(
        protocols=("honeybadger-sc",),
        topologies=(TopologySpec.multi(32, 32, profile="scale", shards=32),),
        faults=("none",)),
)


def default_cells(quick: bool = True, base_seed: int = 0) -> list[CampaignCell]:
    """The bounded default matrix.

    Quick mode: 3 protocols x 9 one-epoch fault models x {single-hop n=4,
    multi-hop 4x4} with workload flavors cycled across cells -- 54 cells,
    every fault model exercised on both topologies by every protocol family
    -- plus the 18 hand-picked :data:`QUICK_CELLS` (large n, streams,
    scenario packs, churn, ingress).  Full mode adds the :data:`FULL_SPECS`
    matrices.  Every cell is seeded by :meth:`CampaignCell.seeded`.
    """
    flavors = itertools.cycle(CAMPAIGN_FLAVORS)
    cells = [CampaignCell(protocol, topology, fault,
                          next(flavors)).seeded(base_seed)
             for protocol in CAMPAIGN_PROTOCOLS
             for topology in (TopologySpec.single(4), TopologySpec.multi(4, 4))
             for fault in ONE_EPOCH_FAULTS]
    cells += [CampaignCell(**row).seeded(base_seed) for row in QUICK_CELLS]
    if not quick:
        for spec in FULL_SPECS:
            cells.extend(replace(spec, base_seed=base_seed).cells())
    return cells


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

#: virtual-time budget for cells expected to decide (quick mode)
QUICK_TIMEOUT_S = 600.0
#: virtual-time budget for non-decision cells: long enough to prove a stall,
#: short enough not to simulate hours of retransmission chatter
NO_DECISION_TIMEOUT_S = 90.0
QUICK_WORKLOAD = dict(batch_size=3, transaction_bytes=48)
FULL_WORKLOAD = dict(batch_size=8, transaction_bytes=64)
#: open-loop offered load of streaming cells (tx/s of virtual time, whole
#: network) -- saturating for the paper profile, so mid-stream faults hit a
#: backlogged system
STREAM_RATE_TPS = 1.0
STREAM_MEMPOOL = 256
#: offered load of *ingress* streaming cells (tx/s of virtual time, whole
#: network) -- past the scale profile's ~45 tx/s saturation point, so the
#: admission gate visibly sheds/defers while under conformance checking
INGRESS_STREAM_RATE_TPS = 120.0


def build_cell_scenario(cell: CampaignCell, quick: bool = True) -> Scenario:
    """The fully faulted scenario a cell runs (exposed for replay/debugging)."""
    fault = FAULT_MODELS[cell.fault]
    scenario = cell.topology.base_scenario()
    if fault.expect_decision:
        timeout = QUICK_TIMEOUT_S * fault.timeout_scale if quick \
            else scenario.timeout_s
        if cell.scenario:
            # The stream must be able to outlive the pack's degraded phases,
            # so the budget covers the whole phase timeline plus the usual
            # fault-free allowance for the healed tail.
            timeout += load_pack(cell.scenario).total_duration_s
    else:
        timeout = NO_DECISION_TIMEOUT_S
    scenario = fault.apply(scenario.replace(timeout_s=timeout))
    if fault.expect_decision:
        # A fault set that silences a link forever can never satisfy the
        # decision expectation -- flag the misconfigured fault model loudly
        # instead of letting the cell time out and masquerade as a protocol
        # liveness bug.
        probe = AsyncAdversary(link_faults=list(scenario.link_faults),
                               partitions=list(scenario.partitions))
        if not probe.eventual_delivery_holds():
            raise ValueError(
                f"fault model {fault.name!r} violates eventual delivery but "
                f"expects a decision; set expect_decision=False or bound the "
                f"fault window")
        if cell.scenario and not load_pack(cell.scenario).eventual_delivery_holds():
            raise ValueError(
                f"scenario pack {cell.scenario!r} never heals (its final "
                f"phase cuts or fully drops traffic) but the cell expects a "
                f"decision; end the pack with a recovered phase")
    return scenario


def _row(record: Any, drop: tuple = ()) -> dict:
    """One artifact row from a result record, minus the ``drop`` fields:
    floats to 6 places with NaN as ``null``, tuples as lists."""
    row = {}
    for key, value in asdict(record).items():
        if key in drop:
            continue
        if isinstance(value, float):
            value = None if value != value else round(value, 6)
        elif isinstance(value, tuple):
            value = list(value)
        row[key] = value
    return row


def run_cell(cell: CampaignCell, quick: bool = True) -> CellOutcome:
    """Run one campaign cell and judge it against the conformance suite.

    Streaming cells (``cell.stream_epochs`` > 0) run the whole multi-epoch
    stream through ``run_streaming_consensus``; the observer then carries
    one decision domain per epoch, so agreement/total-order/validity are
    checked epoch by epoch and ``latency_s`` reports the stream duration.
    """
    fault = FAULT_MODELS[cell.fault]
    scenario = build_cell_scenario(cell, quick=quick)
    sizes = QUICK_WORKLOAD if quick else FULL_WORKLOAD
    observer = RunObserver()
    pack = load_pack(cell.scenario) if cell.scenario else None
    if cell.stream_epochs:
        ingress = ingress_profile(cell.ingress) if cell.ingress else None
        rate = INGRESS_STREAM_RATE_TPS if cell.ingress else STREAM_RATE_TPS
        stream = StreamingSpec(
            epochs=cell.stream_epochs, batch_size=sizes["batch_size"],
            arrival=ArrivalSpec(rate_tps=rate,
                                transaction_bytes=sizes["transaction_bytes"],
                                flavor=cell.flavor,
                                max_mempool=STREAM_MEMPOOL))
        result = run_streaming_consensus(cell.protocol, scenario, stream,
                                         seed=cell.seed, observer=observer,
                                         pack=pack, ingress=ingress)
        latency: Optional[float] = result.duration_s
        digest = result.ledger_digest
    else:
        workload_spec = WorkloadSpec(flavor=cell.flavor, **sizes)
        if cell.topology.is_multi_hop:
            # shard_workers stays 1: campaign runners already parallelise
            # across cells, and worker count never changes results anyway
            result = run_multihop_consensus(cell.protocol, scenario,
                                            seed=cell.seed,
                                            workload_spec=workload_spec,
                                            observer=observer,
                                            shards=cell.topology.shards or None)
        else:
            result = run_consensus(cell.protocol, scenario, seed=cell.seed,
                                   workload_spec=workload_spec,
                                   observer=observer)
        latency = result.latency_s
        digest = result.block_digest
    verdicts = check_all(
        observer, result.decided, fault.expect_decision, scenario.timeout_s,
        affected_domains=fault.affected_domains(cell.topology.is_multi_hop))
    committees: list[dict] = []
    if cell.stream_epochs and result.committees:
        # Membership-churn cells gate on the reconfiguration invariants and
        # record the full committee trail for the artifact.
        verdicts.append(check_ledger_continuity_across_reconfig(
            result.per_epoch, result.committees, result.ledger_digest))
        verdicts.append(check_liveness_under_bounded_churn(
            result.per_epoch, result.committees, result.decided,
            cell.stream_epochs))
        committees = [_row(record) for record in result.committees]
    ingress_classes: list[dict] = []
    if cell.ingress:
        # Ingress cells gate on transaction conservation and record the
        # per-class disposition/latency summary for the artifact.
        verdicts.append(check_ingress_conservation(result.classes))
        ingress_classes = [_row(record) for record in result.classes]
    phases: list[dict] = []
    if pack is not None:
        verdicts.append(check_ledger_continuity(result.per_epoch,
                                                result.ledger_digest))
        verdicts.append(check_scenario_recovery(result.per_epoch,
                                                pack.heal_times()))
        phases = [_row(record, drop=("start_s", "end_s"))
                  for record in result.phases]
    if latency != latency:  # NaN (timed-out run): keep JSON clean
        latency = None
    return CellOutcome(
        cell_id=cell.cell_id, protocol=cell.protocol,
        topology=cell.topology.label, fault=cell.fault, flavor=cell.flavor,
        seed=cell.seed, expect_decision=fault.expect_decision,
        decided=result.decided, ok=all(verdict.ok for verdict in verdicts),
        latency_s=latency,
        committed_transactions=result.committed_transactions,
        block_digest=digest,
        bytes_sent=result.bytes_sent,
        channel_accesses=result.channel_accesses,
        collisions=result.collisions,
        invariants=verdicts,
        scenario=cell.scenario,
        phases=phases,
        committees=committees,
        ingress=cell.ingress,
        ingress_classes=ingress_classes)


def _run_cell_task(task: tuple) -> CellOutcome:
    """Multiprocessing adapter for :func:`run_matrix` (module-level so the
    pool can pickle it by reference)."""
    cell, quick = task
    return run_cell(cell, quick=quick)


def run_matrix(cells: list[CampaignCell], quick: bool = True,
               workers: int = 1) -> list[CellOutcome]:
    """Run a campaign matrix, optionally across worker processes.

    Args:
        cells: the cells to run (e.g. :func:`default_cells` or a custom
            :meth:`CampaignSpec.cells` matrix).
        quick: workload sizing -- ``True`` uses :data:`QUICK_WORKLOAD`
            (3 tx x 48 B per node), ``False`` :data:`FULL_WORKLOAD`
            (8 tx x 64 B).
        workers: worker processes; values < 2 (or a single cell) run
            serially in-process.

    Returns outcomes in the same order as ``cells``.  Every cell is a pure
    function of its description -- its seed is baked into the
    :class:`CampaignCell` -- so the outcome list is identical for any
    ``workers`` value, which is what makes ``CAMPAIGN.json`` byte-stable
    across serial and parallel runs.
    """
    work = [(cell, quick) for cell in cells]
    effective = min(max(workers, 1), len(work)) if work else 1
    if effective > 1:
        with multiprocessing.Pool(processes=effective) as pool:
            return pool.map(_run_cell_task, work)
    return [_run_cell_task(task) for task in work]


def campaign_report(outcomes: list[CellOutcome], base_seed: int,
                    quick: bool) -> dict[str, Any]:
    """Aggregate cell outcomes into the ``CAMPAIGN.json`` structure.

    Deterministic for a fixed (cells, base_seed): outcomes are sorted by
    cell id and no wall-clock data is included, so re-running the same
    campaign reproduces the artifact byte for byte.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.cell_id)
    return {
        "campaign": {
            "seed": base_seed,
            "quick": quick,
            "num_cells": len(ordered),
            "all_ok": all(outcome.ok for outcome in ordered),
            "protocols": sorted({outcome.protocol for outcome in ordered}),
            "topologies": sorted({outcome.topology for outcome in ordered}),
            "faults": sorted({outcome.fault for outcome in ordered}),
            "flavors": sorted({outcome.flavor for outcome in ordered}),
            "scenarios": sorted({outcome.scenario for outcome in ordered
                                 if outcome.scenario}),
        },
        "cells": [outcome.to_json() for outcome in ordered],
    }
