"""Deployment and experiment harness.

The harness assembles a deployment from a :class:`~repro.testbed.scenarios.Scenario`
(simulator, channels, nodes, cryptography, transports, routers), instantiates
protocols or individual components on top of it, runs the simulation to
completion and extracts metrics.  It is the programmatic equivalent of the
paper's testbed: every figure-reproducing benchmark and every example program
goes through these entry points:

* :func:`run_consensus`            -- one epoch of a consensus protocol on a
  single-hop deployment (Fig. 10d, Fig. 13a);
* :func:`run_multihop_consensus`   -- the two-phase clustered construction
  (Fig. 13b);
* :func:`run_broadcast_experiment` -- N parallel broadcast-component instances
  (Fig. 11a/11b);
* :func:`run_aba_experiment`       -- parallel or serial ABA instances
  (Fig. 12a/12b);
* :func:`repro.testbed.streaming.run_streaming_consensus` -- E back-to-back
  epochs under an open-loop arrival process (sustained load).

There is one epoch driver, :class:`Epoch` (install instances, propose, feed
local decisions upward, wait, harvest witnesses, release): the one-epoch
entry points drive one, every shard runner one on its slice, the streaming
runner one per in-flight epoch on one long-lived deployment; on a single-hop
deployment its global tier is simply empty.  Likewise there is one
deployment assembler (:func:`_assemble` over :func:`_build_stack`; the
sharded builder and the membership rebind call the same two).  Every entry
point closes its deployment (:meth:`Deployment.close`) once its result is
assembled, so reference counting frees a finished run, and every entry
point first asks :func:`check_composition`, the one list of the scenario
compositions a run refuses.
"""

from __future__ import annotations

import random
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.components.aba_factory import ABA_BY_COIN, aba_factory, coin_schemes
from repro.components.base import Component, ComponentContext, ComponentRouter
from repro.components.cbc import Cbc
from repro.components.cbc_small import CbcSmall
from repro.components.prbc import Prbc
from repro.components.rbc import BrachaRbc
from repro.components.rbc_small import RbcSmall
from repro.core.batcher import (
    BaseTransport,
    BaselineTransport,
    ConsensusBatcherTransport,
    TransportConfig,
)
from repro.crypto.timing import CryptoSuite
from repro.net.adversary import AsyncAdversary
from repro.net.channel import WirelessChannel
from repro.net.csma import CsmaMac
from repro.net.node import NetworkNode
from repro.net.routing import InterClusterRouting
from repro.net.sim import Simulator
from repro.net.topology import Topology
from repro.net.trace import NetworkTrace
from repro.protocols.base import ConsensusConfig, ConsensusProtocol, ProtocolName
from repro.protocols.beat import Beat
from repro.protocols.dumbo import Dumbo
from repro.protocols.honeybadger import HoneyBadger
from repro.protocols.multihop import (
    contribution_transactions,
    encode_cluster_contribution,
    select_leader,
)
from repro.testbed.byzantine import CRASH_AT_EPOCH, SLOW_LINK_DELAY_S
from repro.testbed.dealer_cache import (
    ALL_SCHEMES,
    SCHEME_COIN_FLIP,
    SCHEME_KEYRING,
    SCHEME_THRESHOLD_COIN,
    SCHEME_THRESHOLD_ENC,
    SCHEME_THRESHOLD_SIG,
    CryptoDomain,
    deal_crypto_domain,
    stable_seed,
)
from repro.testbed.invariants import RunObserver
from repro.testbed.metrics import (
    ComponentRunResult,
    ConsensusRunResult,
    MultiHopRunResult,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import (
    TransactionWorkload,
    WorkloadSpec,
    random_bytes,
)

#: epoch tag used to derive the conflicting batch of an equivocating proposer
EQUIVOCATION_EPOCH = "equiv"


class DeploymentError(RuntimeError):
    """Raised when a deployment cannot be assembled or a run misbehaves."""


# ---------------------------------------------------------------------------
# crypto domains
# ---------------------------------------------------------------------------

def crypto_schemes_for_protocol(protocol: str,
                                config: Optional[ConsensusConfig] = None
                                ) -> tuple[str, ...]:
    """The threshold schemes one protocol actually uses (lazy dealing).

    Every domain needs the digital-signature keyring (packet signing); beyond
    that, HoneyBadger needs the coin of its ABA variant plus threshold
    encryption (when enabled), BEAT substitutes the coin-flipping scheme, and
    Dumbo needs threshold signatures (PRBC DONE / CBC FINISH) plus the
    threshold coin that derives its global permutation.  Dealing only these
    keeps large-n setup proportional to what the run can exercise.
    """
    canonical = ProtocolName.validate(protocol)
    family = ProtocolName.family(canonical)
    coin = ProtocolName.coin(canonical)
    config = config or ConsensusConfig()
    needed: set[str] = {SCHEME_KEYRING}
    if family == "dumbo":
        needed.add(SCHEME_THRESHOLD_SIG)
        needed.add(SCHEME_THRESHOLD_COIN)  # the "pi" permutation coin
    else:  # honeybadger / beat share the HoneyBadger structure
        if config.use_threshold_encryption:
            needed.add(SCHEME_THRESHOLD_ENC)
    needed.update(coin_schemes(coin))
    return tuple(scheme for scheme in ALL_SCHEMES if scheme in needed)


def global_epoch_config(config: Optional[ConsensusConfig]) -> ConsensusConfig:
    """The config of the leaders' global instance for a local epoch config.

    The global instance orders already-decided (public) cluster blocks, so it
    runs without threshold encryption under the tag ``("global", epoch)``.
    """
    base = config or ConsensusConfig()
    return ConsensusConfig(epoch=("global", base.epoch),
                           use_threshold_encryption=False)


def multihop_crypto_schemes(protocol: str, config: Optional[ConsensusConfig]
                            ) -> dict[str, tuple[str, ...]]:
    """The two ``*crypto_schemes`` builder arguments of a ``protocol`` run:
    what the cluster domains and the leaders' global domain must deal."""
    return {
        "crypto_schemes": crypto_schemes_for_protocol(protocol, config),
        "global_crypto_schemes": crypto_schemes_for_protocol(
            protocol, global_epoch_config(config))}


# ---------------------------------------------------------------------------
# deployments
# ---------------------------------------------------------------------------

@dataclass
class DomainRuntime:
    """One node's per-domain runtime: context, transport and router."""

    local_id: int
    ctx: ComponentContext
    transport: BaseTransport
    router: ComponentRouter
    protocol: Optional[ConsensusProtocol] = None

    def close(self) -> None:
        """Close the router (every component and protocol registered on
        it) and the transport."""
        self.router.close()
        self.transport.close()


@dataclass
class Deployment:
    """A fully assembled single-hop or multi-hop deployment."""

    scenario: Scenario
    sim: Simulator
    trace: NetworkTrace
    adversary: AsyncAdversary
    channels: dict[str, WirelessChannel]
    nodes: dict[int, NetworkNode]
    #: per global node id, the runtime of its primary (cluster) domain
    runtimes: dict[int, DomainRuntime]
    #: multi-hop only: per leader node id, the runtime of the global domain
    global_runtimes: dict[int, DomainRuntime] = field(default_factory=dict)
    #: multi-hop only: per cluster index, the leader wired into the global
    #: domain for the deployment's whole life (one epoch or a streaming run)
    epoch_leaders: dict[int, int] = field(default_factory=dict)
    batched: bool = True

    def honest_ids(self) -> list[int]:
        """Global ids of honest nodes."""
        byzantine = self.scenario.byzantine.byzantine_ids
        return [node_id for node_id in self.nodes if node_id not in byzantine]

    def close(self) -> None:
        """Break the run's reference cycles, so reference counting frees the
        deployment as soon as its owner lets go of it (end of run).

        Nodes, MACs, channels, transports, routers, components and protocols
        all point back at each other, and the pending heap entries at all of
        them; left alone, a finished deployment waits for a full cyclic
        collection.  Closing drops the heap, every stack, interface, slot,
        registration and callback.  Afterwards the deployment answers only
        ``sim``'s counters and ``trace``.  Closing twice does nothing.
        """
        self.sim.close()
        for runtime in (*self.runtimes.values(),
                        *self.global_runtimes.values()):
            runtime.close()
        for node in self.nodes.values():
            node.close()
        for channel in self.channels.values():
            channel.close()


def _build_stack(deployment: Deployment, node: NetworkNode, local_id: int,
                 num_nodes: int, domain: CryptoDomain,
                 transport_config: TransportConfig,
                 channel_names: Sequence[Optional[str]],
                 suite_rng: random.Random,
                 component_rng: random.Random) -> DomainRuntime:
    """One node's protocol stack in one crypto domain.

    The single recipe behind every runtime of every deployment -- cluster
    and leader domains, classic and sharded, first build and membership
    reconfiguration: crypto suite -> transport -> router, bound to
    ``channel_names`` (``None`` = the node's default stack).  Digital
    signatures are per-domain (``local_id``), which is consistent because
    frames only travel inside the domain's channel.
    """
    scenario = deployment.scenario
    suite = CryptoSuite(
        node_id=local_id,
        signing_key=domain.signing_keys[local_id],
        verify_keys=domain.verify_keys,
        threshold_sig=domain.node_scheme(SCHEME_THRESHOLD_SIG, local_id),
        threshold_coin=domain.node_scheme(SCHEME_THRESHOLD_COIN, local_id),
        coin_flip=domain.node_scheme(SCHEME_COIN_FLIP, local_id),
        threshold_enc=domain.node_scheme(SCHEME_THRESHOLD_ENC, local_id),
        ec_curve=scenario.ec_curve,
        threshold_curve=scenario.threshold_curve,
        rng=suite_rng,
        cost_sink=node.charge_cpu,
        cost_scale=scenario.crypto_cost_scale,
    )
    transport_class = ConsensusBatcherTransport if deployment.batched \
        else BaselineTransport
    transport = transport_class(node, num_nodes, suite, deployment.trace,
                                transport_config, local_id=local_id)
    router = ComponentRouter()
    transport.register_receiver(router.dispatch)
    for channel_name in channel_names:
        node.bind_stack(transport, channel=channel_name)
    ctx = ComponentContext(
        node_id=local_id, num_nodes=num_nodes, faults=domain.faults,
        transport=transport, suite=suite, sim=deployment.sim,
        rng=component_rng)
    return DomainRuntime(local_id=local_id, ctx=ctx, transport=transport,
                         router=router)


def _apply_byzantine_network_behaviour(deployment: Deployment) -> None:
    """Apply strategies that act at the network level (crashes, delays).

    Crashes act on the node object and apply only where the node is hosted
    (a shard hosts a subset of the topology); slow links act at delivery
    time in the *receiver's* adversary, so they are registered against every
    node of the topology wherever the Byzantine sender lives.
    """
    scenario = deployment.scenario
    spec = scenario.byzantine
    for node_id, strategy in spec.assignments.items():
        node = deployment.nodes.get(node_id)
        if strategy == "crash" and node is not None:
            node.crash()
        elif strategy == "late-crash" and node is not None:
            deployment.sim.schedule(spec.late_crash_at_s, node.crash)
        elif strategy == "slow-links":
            for other_id in scenario.topology.all_node_ids():
                if other_id != node_id:
                    deployment.adversary.target_link(node_id, other_id,
                                                     SLOW_LINK_DELAY_S)


def _assemble(scenario: Scenario, sim: Simulator, batched: bool, seed: int,
              crypto_schemes: Sequence[str],
              global_crypto_schemes: Sequence[str],
              hosted: Optional[Sequence[int]] = None,
              backbone_class: Callable[..., WirelessChannel] = WirelessChannel,
              backbone_mac_class: type[CsmaMac] = CsmaMac) -> Deployment:
    """The one deployment assembler.

    :func:`build_deployment` and
    :func:`repro.testbed.sharding.build_shard_deployment` are thin wrappers
    that differ only in the arguments they pass here: the simulator (its
    seed), the cluster indices this process ``hosted`` (``None`` = all) and
    the backbone channel / MAC classes.  Everything else -- ``stable_seed``
    labels, dealing, the stack recipe -- is shared, which is what makes a
    node's MAC/crypto/component streams independent of the shard layout.

    Leaders are resolved and the global domain is dealt for *all* clusters
    (pure functions of the scenario), but only hosted leaders get a backbone
    MAC and stack.  Construction order is part of the determinism contract:
    transports draw their resend jitter from the simulator RNG when built, so
    every hosted cluster's local stacks are built first, then the global
    stacks in cluster order.
    """
    topology = scenario.topology
    clusters = topology.clusters if hosted is None \
        else [topology.clusters[index] for index in hosted]
    trace = NetworkTrace()
    adversary = AsyncAdversary(
        link_faults=list(scenario.link_faults),
        partitions=list(scenario.partitions))
    channels: dict[str, WirelessChannel] = {
        cluster.channel_name: WirelessChannel(
            sim, scenario.radio, trace, name=cluster.channel_name,
            adversary=adversary)
        for cluster in clusters}
    backbone_name = topology.global_channel_name
    multi_hop = scenario.is_multi_hop and backbone_name is not None
    if multi_hop:
        channels[backbone_name] = backbone_class(
            sim, scenario.radio, trace, name=backbone_name, adversary=adversary,
            per_hop_forward_s=scenario.per_hop_forward_s)
    deployment = Deployment(scenario=scenario, sim=sim, trace=trace,
                            adversary=adversary, channels=channels, nodes={},
                            runtimes={}, batched=batched)

    # --- per-cluster (local) domains -------------------------------------
    for cluster in clusters:
        domain = deal_crypto_domain(
            cluster.size, stable_seed(seed, "cluster", cluster.index),
            schemes=crypto_schemes)
        channel = channels[cluster.channel_name]
        for local_id, global_id in enumerate(cluster.node_ids):
            node = NetworkNode(sim, global_id, trace, cpu=scenario.cpu,
                               dma_config=scenario.dma)
            node.add_interface("radio0", CsmaMac(
                sim, global_id, channel, scenario.csma, trace,
                random.Random(stable_seed(seed, "mac", global_id))))
            deployment.nodes[global_id] = node
            deployment.runtimes[global_id] = _build_stack(
                deployment, node, local_id, cluster.size, domain,
                scenario.transport, (cluster.channel_name, None),
                random.Random(stable_seed(seed, "crypto", global_id)),
                random.Random(stable_seed(seed, "component", global_id)))

    # --- global (leader) domain for multi-hop -----------------------------
    if multi_hop:
        crashed = lambda node_id: \
            scenario.byzantine.assignments.get(node_id) == "crash"
        for cluster in topology.clusters:
            # Detect-and-replace (Section V-B): a crashed leader is excluded
            # for good and the selection moves on an epoch, until one is live.
            # Without rotation the epoch-0 leader stays even if crashed.
            epoch, excluded = 0, frozenset()
            leader = select_leader(cluster, epoch)
            while scenario.rotate_crashed_leaders and crashed(leader):
                epoch, excluded = epoch + 1, excluded | {leader}
                leader = select_leader(cluster, epoch, excluded)
            deployment.epoch_leaders[cluster.index] = leader
        leaders = list(deployment.epoch_leaders.values())  # cluster order
        global_domain = deal_crypto_domain(
            len(leaders), stable_seed(seed, "global"),
            schemes=global_crypto_schemes)
        backbone = channels[backbone_name]
        backbone.hop_counts.update(
            InterClusterRouting(topology).hop_table_for(leaders))
        backbone_config = scenario.transport if scenario.transport.interface \
            else replace(scenario.transport, interface="backbone")
        for local_id, leader_id in enumerate(leaders):
            node = deployment.nodes.get(leader_id)
            if node is None:  # this leader's cluster is hosted elsewhere
                continue
            node.add_interface("backbone", backbone_mac_class(
                sim, leader_id, backbone, scenario.csma, trace,
                random.Random(stable_seed(seed, "gmac", leader_id))))
            deployment.global_runtimes[leader_id] = _build_stack(
                deployment, node, local_id, len(leaders), global_domain,
                backbone_config, (backbone_name,),
                random.Random(stable_seed(seed, "gcrypto", leader_id)),
                random.Random(stable_seed(seed, "gcomponent", leader_id)))

    _apply_byzantine_network_behaviour(deployment)
    return deployment


def build_deployment(scenario: Scenario, batched: bool = True,
                     seed: int = 0,
                     crypto_schemes: Sequence[str] = ALL_SCHEMES,
                     global_crypto_schemes: Optional[Sequence[str]] = None
                     ) -> Deployment:
    """Assemble nodes, channels, crypto and transports for a scenario.

    ``crypto_schemes`` limits which threshold schemes the per-cluster domains
    deal (see :func:`crypto_schemes_for_protocol`); ``global_crypto_schemes``
    does the same for the multi-hop leader domain (defaults to
    ``crypto_schemes``).  Dealing goes through the process's
    :class:`~repro.testbed.dealer_cache.DealerCache`, so repeated deployments
    at the same ``(num_nodes, seed)`` share bit-identical key material
    without re-dealing.
    """
    if global_crypto_schemes is None:
        global_crypto_schemes = crypto_schemes
    return _assemble(scenario, Simulator(seed=seed), batched, seed,
                     crypto_schemes, global_crypto_schemes)


# ---------------------------------------------------------------------------
# protocol factory
# ---------------------------------------------------------------------------

def make_protocol(name: str, runtime: DomainRuntime,
                  config: Optional[ConsensusConfig] = None) -> ConsensusProtocol:
    """Instantiate a consensus protocol on one node's domain runtime."""
    canonical = ProtocolName.validate(name)
    family = ProtocolName.family(canonical)
    coin = ProtocolName.coin(canonical)
    config = config or ConsensusConfig()
    if family == "honeybadger":
        return HoneyBadger(runtime.ctx, runtime.router, coin=coin, config=config)
    if family == "beat":
        return Beat(runtime.ctx, runtime.router, config=config)
    return Dumbo(runtime.ctx, runtime.router, coin=coin, config=config)


def check_composition(scenario: Scenario, entry_point: str,
                      multi_hop: Optional[bool] = None, epochs: int = 1,
                      pipeline_depth: int = 0,
                      membership: bool = False) -> None:
    """The one list of composition rules: refuse a run that cannot run.

    ``multi_hop`` is a one-epoch entry point's hop count; ``None`` marks a
    stream of ``epochs`` epochs at ``pipeline_depth``, which takes either
    hop count.  ``membership`` says the stream gets an explicit schedule (a
    scenario's churn spec counts on its own).  The rules:

    * the hop count must be the entry point's: a single-hop runner on a
      multi-hop scenario would run every cluster as an unrelated deployment
      (and mix their nodes into one result), a multi-hop runner needs a
      backbone;
    * ``epoch-crash`` fires at stream epoch :data:`CRASH_AT_EPOCH`, so the
      run needs more epochs than that (a one-epoch run counts as one): a
      fault that can never fire would leave the run vacuously green -- the
      failure mode :func:`_inject_equivocation` guards against;
    * membership reconfigures the single-hop committee at a quiescent epoch
      boundary: it needs a stream, a single-hop topology (multi-hop
      reconfiguration would re-elect leaders and re-route the backbone
      mid-stream) and ``pipeline_depth == 0``.

    The four one-epoch entry points and
    :class:`~repro.testbed.streaming.StreamingRun` call it on the scenario
    they get; :class:`~repro.testbed.campaign.CampaignCell` calls it when it
    is built, so a bad sweep is refused then rather than inside a worker.
    """
    stream = multi_hop is None
    if not stream and scenario.is_multi_hop != multi_hop:
        raise DeploymentError(
            f"{entry_point} expects a multi-hop scenario" if multi_hop else
            f"{entry_point} expects a single-hop scenario; a multi-hop one "
            f"runs in run_multihop_consensus")
    if (scenario.byzantine.nodes_with("epoch-crash")
            and epochs <= CRASH_AT_EPOCH):
        raise DeploymentError(
            f"epoch-crash at epoch {CRASH_AT_EPOCH} can never fire in a "
            f"{epochs}-epoch run; run_streaming_consensus with more epochs "
            f"fires it")
    if membership or scenario.membership is not None:
        if not stream:
            raise DeploymentError(
                "membership churn reconfigures the committee at epoch "
                "boundaries, which a one-epoch run does not have; use "
                "run_streaming_consensus")
        if scenario.is_multi_hop:
            raise DeploymentError(
                "membership schedules reconfigure the single-hop "
                "committee; multi-hop reconfiguration is not supported")
        if pipeline_depth > 0:
            raise ValueError(
                f"pipeline_depth must be 0 under a membership schedule "
                f"(reconfiguration needs a quiescent epoch boundary), "
                f"got {pipeline_depth}")


# ---------------------------------------------------------------------------
# completion by counting
# ---------------------------------------------------------------------------

class _CompletionLatch:
    """Counts down to "every honest node finished every instance".

    The run loops evaluate their stop predicate after *every* event, while
    the answer only changes when an instance completes.  So the completion
    hooks (``Component.on_output`` / ``ConsensusProtocol.on_decide``, once
    per decision) :meth:`mark` the latch, and the predicate :meth:`done` is
    one integer test instead of a scan over all honest nodes.  Marks from
    nodes outside the honest set, repeated marks and instances outside
    ``range(instances)`` are ignored, like the scan ignored them.
    """

    def __init__(self, honest: Sequence[int], instances: int = 1) -> None:
        self._remaining = {node_id: set(range(instances)) for node_id in honest}
        #: honest nodes that still have an unfinished instance
        self.pending = sum(1 for left in self._remaining.values() if left)

    def mark(self, node_id: int, instance: int = 0) -> None:
        """Record that ``node_id`` finished ``instance``."""
        remaining = self._remaining.get(node_id)
        if remaining and instance in remaining:
            remaining.remove(instance)
            if not remaining:
                self.pending -= 1

    def watch(self, protocols: dict[int, ConsensusProtocol]) -> None:
        """Mark each honest node when its instance in ``protocols`` decides."""
        for node_id in self._remaining:
            protocols[node_id].on_decide = \
                lambda _block, node_id=node_id: self.mark(node_id)

    def done(self) -> bool:
        """Whether every honest node has finished every instance."""
        return not self.pending


# ---------------------------------------------------------------------------
# consensus runs (single-hop)
# ---------------------------------------------------------------------------

def run_consensus(protocol: str, scenario: Scenario, batch_size: int = 8,
                  transaction_bytes: int = 64, batched: bool = True,
                  seed: int = 0,
                  config: Optional[ConsensusConfig] = None,
                  workload_spec: Optional[WorkloadSpec] = None,
                  observer: Optional[RunObserver] = None) -> ConsensusRunResult:
    """Run one epoch of ``protocol`` on a single-hop scenario.

    Args:
        protocol: canonical protocol name (see
            ``repro.protocols.base.PROTOCOL_NAMES``), e.g. ``honeybadger-sc``
            or ``beat``.
        scenario: a single-hop :class:`~repro.testbed.scenarios.Scenario`
            (multi-hop raises :class:`DeploymentError`).
        batch_size / transaction_bytes: the uniform workload's transactions
            per node and bytes per transaction, ignored when
            ``workload_spec`` is given.  They stay for positional callers
            (``benchmarks/ledger/test_ledger.py``); pass ``workload_spec``.
        batched: ``True`` deploys the ConsensusBatcher transport, ``False``
            the unbatched baseline transport.
        seed: integer seed from which *all* randomness derives (crypto
            dealing, MAC backoff, adversary jitter, workload bytes).
        config: protocol tuning (epoch tag, threshold encryption toggle).
        workload_spec: each node's batch: transactions per epoch, bytes per
            transaction, flavor (default ``WorkloadSpec()``: 8 uniform
            transactions of 64 B; flavored campaigns use
            ``task-allocation`` / ``telemetry``).
        observer: collects proposals and decisions for the conformance
            checkers in :mod:`repro.testbed.invariants`.

    Returns a :class:`~repro.testbed.metrics.ConsensusRunResult` whose
    ``latency_s`` is **simulated virtual time in seconds** (NaN on timeout)
    and ``throughput_tpm`` transactions per *minute* of virtual time.

    Determinism: the result is a pure function of
    ``(protocol, scenario, workload, batched, seed, config)`` -- no
    wall-clock or process state enters the simulation, so equal arguments
    reproduce every metric bit for bit (guarded by
    ``tests/testbed/test_seed_determinism.py``).
    """
    check_composition(scenario, "run_consensus", multi_hop=False)
    deployment = build_deployment(
        scenario, batched=batched, seed=seed,
        crypto_schemes=crypto_schemes_for_protocol(protocol, config))
    with closing(deployment):
        workload = TransactionWorkload(
            workload_spec or WorkloadSpec(batch_size=batch_size,
                                          transaction_bytes=transaction_bytes),
            seed=seed)
        epoch = Epoch(deployment, protocol, config)
        epoch.propose(workload, observer=observer)
        decided = deployment.sim.run_until(epoch.done,
                                           timeout=scenario.timeout_s)
        decide_times, digests, digest, committed = fold_decisions(
            epoch.decisions(), epoch.transactions, observer)
        crypto_seconds = sum(runtime.ctx.suite.ledger.total_seconds
                             for runtime in deployment.runtimes.values())
        return ConsensusRunResult(
            protocol=protocol, batched=batched,
            num_nodes=deployment.scenario.num_nodes,
            decided=decided,
            latency_s=max(decide_times.values(), default=float("nan")),
            per_node_latency_s=decide_times,
            committed_transactions=len(committed), block_digest=digest,
            per_node_digest=digests,
            channel_accesses=deployment.trace.total_channel_accesses,
            frames_sent=deployment.trace.total_frames_sent,
            bytes_sent=deployment.trace.total_bytes_sent,
            collisions=deployment.trace.total_collisions,
            crypto_seconds=crypto_seconds,
            sim_events=deployment.sim.events_processed,
            seed=seed)


# ---------------------------------------------------------------------------
# the epoch driver
# ---------------------------------------------------------------------------

def _install_protocols(protocol: str, runtimes: dict[int, DomainRuntime],
                       config: Optional[ConsensusConfig]
                       ) -> dict[int, ConsensusProtocol]:
    """One protocol instance per runtime, tagged ``config.epoch`` (instances
    of different epochs coexist on one router/transport because every
    component message carries the tag)."""
    protocols: dict[int, ConsensusProtocol] = {}
    for node_id, runtime in runtimes.items():
        instance = make_protocol(protocol, runtime, config)
        runtime.protocol = instance
        protocols[node_id] = instance
    return protocols


def _inject_equivocation(protocol: ConsensusProtocol,
                         conflicting: list[bytes]) -> None:
    """Launch the equivocation attack, failing loudly if unsupported.

    A protocol whose :meth:`inject_conflicting_proposal` returns False would
    otherwise make an ``equivocate`` campaign cell vacuously green -- decided
    without any attack launched, while the observer testifies one happened.
    """
    if not protocol.inject_conflicting_proposal(conflicting):
        raise DeploymentError(
            f"protocol {protocol.name!r} does not implement the equivocation "
            f"attack; the equivocating-proposer strategy cannot be exercised")


def _decided(instances) -> list[tuple]:
    """``(node id, block, decide time, digest)`` of every instance of
    ``instances`` (``(node id, instance)`` pairs) that has decided --
    picklable, so a shard worker can send them home."""
    witnesses = []
    for node_id, instance in instances:
        witness = instance.witness()
        if witness.digest is not None:
            witnesses.append((node_id, list(witness.block),
                              witness.decide_time, witness.digest))
    return witnesses


def global_block_transactions(block: list[bytes]) -> list[bytes]:
    """The flat transaction list a globally decided block commits."""
    return [transaction for item in block
            for transaction in contribution_transactions(item)]


class Epoch:
    """One consensus epoch on the clusters a deployment hosts.

    The single driver of an epoch -- install the protocol instances,
    propose, carry every cluster's locally decided block into the leaders'
    global instance, wait, harvest the witnesses, release.  On a single-hop
    deployment the global tier is simply empty: there is no leader to feed
    and the honest local instances are the :attr:`deciders`.
    ``run_consensus`` and the classic multi-hop run drive one of these on
    the whole topology, every shard runner one on its slice, the streaming
    runner one per in-flight epoch.
    """

    def __init__(self, deployment: Deployment, protocol: str,
                 config: Optional[ConsensusConfig] = None) -> None:
        self.deployment = deployment
        self.local_protocols = _install_protocols(
            protocol, deployment.runtimes, config)
        self.global_protocols = _install_protocols(
            protocol, deployment.global_runtimes, global_epoch_config(config))
        #: whether leaders carry cluster blocks into a global instance
        self.two_phase = bool(deployment.epoch_leaders)
        byzantine = deployment.scenario.byzantine.byzantine_ids
        self._honest_locals = {
            node_id: instance
            for node_id, instance in self.local_protocols.items()
            if node_id not in byzantine}
        # Resolved once, as (node, instance): settled() reads the crash flag
        # and the decision of every honest local.
        self._settling = [(deployment.nodes[node_id], instance)
                          for node_id, instance in self._honest_locals.items()]
        #: the honest instances whose decision *is* the epoch's decision:
        #: the hosted honest leaders' global instances on a multi-hop
        #: deployment, the honest local instances otherwise
        self.deciders: dict[int, ConsensusProtocol] = {
            leader: self.global_protocols[leader]
            for leader in deployment.global_runtimes
            if leader not in byzantine
        } if self.two_phase else self._honest_locals
        latch = _CompletionLatch(list(self.deciders))
        latch.watch(self.deciders)
        #: ``done()``: whether every one of the :attr:`deciders` has decided.
        #: The latch's own method, not a wrapper: it is the stop predicate
        #: the run loops evaluate after every event.
        self.done = latch.done
        #: per fed cluster, the virtual time its leader decided locally
        self.local_latencies: dict[int, float] = {}
        # Hosted clusters not yet fed, as (cluster, leader, local instance);
        # leaders stay pinned to the deployment's epoch_leaders.
        self._pending = [
            (cluster_index, leader_id, self.local_protocols[leader_id])
            for cluster_index, leader_id in deployment.epoch_leaders.items()
            if leader_id in self.local_protocols]
        #: leaders that decided locally since the last feed()
        self._unfed = 0
        for _cluster_index, _leader_id, local in self._pending:
            local.on_decide = self._note_local_decision

    def _note_local_decision(self, _block: list[bytes]) -> None:
        self._unfed += 1

    def _proposal_domain(self, domain_prefix: tuple, node_id: int) -> Any:
        if not self.two_phase:
            return domain_prefix or 0
        cluster = self.deployment.scenario.topology.cluster_of(node_id)
        return domain_prefix + ("cluster", cluster.index)

    def decision_domain(self, domain_prefix: tuple = ()) -> Any:
        """The observer domain the :attr:`deciders`' decisions belong to
        (cluster-local ones go to ``domain_prefix + ("cluster", index)``)."""
        if not self.two_phase:
            return domain_prefix or 0
        return domain_prefix + ("global",) if domain_prefix else "global"

    def propose(self, workload: TransactionWorkload,
                observer: Optional[RunObserver] = None,
                domain_prefix: tuple = (),
                batch_for: Optional[Callable[[int, DomainRuntime], list]] = None,
                equivocation_epoch: Any = EQUIVOCATION_EPOCH) -> None:
        """Submit every hosted, eligible node's local proposal.

        Byzantine proposal strategies (crash / mute / garbage /
        equivocation) are applied here so every entry point -- including the
        streaming runner -- exercises the same fault surface.
        ``batch_for(node_id, runtime)`` overrides where honest batches come
        from (default: ``workload.batch_for(local_id)``; the streaming
        runner drains per-node mempools instead); ``equivocation_epoch`` is
        the workload tag the conflicting batch of an equivocating proposer
        is derived from, which streaming varies per epoch so conflicting
        batches stay disjoint from every honest batch of the stream.  The
        observer sees the domain ``domain_prefix + ("cluster", index)`` on a
        multi-hop deployment and ``domain_prefix or 0`` on a single-hop one.
        """
        deployment = self.deployment
        spec = deployment.scenario.byzantine
        proposal_rng = random.Random(deployment.sim.seed ^ 0xBAD)
        for node_id, runtime in deployment.runtimes.items():
            if not spec.proposes(node_id) and spec.is_byzantine(node_id):
                continue
            node = deployment.nodes[node_id]
            if node.crashed:
                continue
            domain = self._proposal_domain(domain_prefix, node_id) \
                if observer is not None else None
            if spec.proposal_is_garbage(node_id):
                batch = [random_bytes(proposal_rng, 40)]
                if observer is not None:
                    observer.record_proposal(node_id, batch, domain,
                                             kind="garbage")
                node.run_task(lambda p=runtime.protocol, b=batch: p.propose(b))
                continue
            if batch_for is not None:
                batch = batch_for(node_id, runtime)
            else:
                batch = workload.batch_for(runtime.local_id)
            if observer is not None:
                observer.record_proposal(node_id, batch, domain)
            node.run_task(lambda p=runtime.protocol, b=batch: p.propose(b))
            if spec.equivocates(node_id):
                conflicting = workload.batch_for(runtime.local_id,
                                                 epoch=equivocation_epoch)
                if observer is not None:
                    observer.record_proposal(node_id, conflicting, domain,
                                             kind="equivocation")
                node.run_task(lambda p=runtime.protocol, b=conflicting:
                              _inject_equivocation(p, b))

    def feed(self) -> None:
        """Propose newly decided cluster blocks into the global instance.

        Called from the run loop after every event, so it returns at once
        unless a leader decided locally since the last call (never, on a
        single-hop deployment).  Idempotent: a cluster is fed exactly once,
        by the first call after its leader decided locally.
        """
        if not self._unfed:
            return
        self._unfed = 0
        for entry in [entry for entry in self._pending if entry[2].decided]:
            self._pending.remove(entry)
            cluster_index, leader_id, local = entry
            self.local_latencies[cluster_index] = local.decide_time
            contribution = encode_cluster_contribution(
                cluster_index, list(local.block or []))
            global_instance = self.global_protocols[leader_id]
            self.deployment.nodes[leader_id].run_task(
                lambda p=global_instance, c=contribution: p.propose([c]))

    def settled(self) -> bool:
        """Whether the epoch can be checkpointed and released.

        Every honest local instance that can still decide has decided, and
        so has every honest leader's global instance: ``release()`` is only
        sound once no honest instance is still in flight (see
        :meth:`ConsensusProtocol.release`).  A crashed node is permanently
        silent and must not stall the stream (absent membership churn no
        honest node ever crashes, so the filter is inert); if churn crashes
        *every* honest member the epoch never settles and the stream times
        out -- the correct failure for churn beyond the f-bound.

        A full scan of the honest locals: the stream asks only from a poll
        body, which runs only when ``sim.milestones`` moved.
        """
        live = [instance.decided for node, instance in self._settling
                if not node.crashed]
        return bool(live) and all(live) and (not self.two_phase or self.done())

    def content_locked(self) -> bool:
        """Whether nothing that starts now can change what the epoch decides.

        Single-hop: every decider reports ``pipeline_ready`` -- its decided
        content is frozen (for HoneyBadger/BEAT the common subset is locked;
        only content-deterministic decryption remains).  Two-phase epochs
        conservatively wait until :meth:`settled`: the global block depends
        on which local blocks get fed, so its content freezes no earlier.
        """
        if self.two_phase:
            return self.settled()
        return all(instance.pipeline_ready
                   for instance in self.deciders.values())

    def transactions(self, block: list[bytes]) -> list[bytes]:
        """The flat transaction list a decider's ``block`` commits (a
        two-phase block is a list of cluster contributions)."""
        return global_block_transactions(block) if self.two_phase else block

    def decisions(self) -> list[tuple]:
        """``(node, block, decide time, digest)`` per decider that decided."""
        return _decided(self.deciders.items())

    def cluster_decisions(self) -> list[tuple]:
        """The same for the cluster tier of a two-phase epoch: every honest
        local instance that decided (empty on a single-hop deployment,
        whose local instances are the deciders)."""
        if not self.two_phase:
            return []
        return _decided(self._honest_locals.items())

    def release(self) -> None:
        """Drop the router and transport state of every instance of the
        epoch, both tiers (sound once :meth:`settled`)."""
        for instance in (*self.local_protocols.values(),
                         *self.global_protocols.values()):
            instance.release()

    def report(self) -> dict[str, Any]:
        """The picklable witness of this epoch on this deployment (what a
        shard worker sends home; ``merge_multihop_reports`` folds them)."""
        return {
            "events": self.deployment.sim.events_processed,
            "trace": self.deployment.trace,
            "local_latencies": self.local_latencies,
            "cluster_decisions": self.cluster_decisions(),
            "decisions": self.decisions(),
        }


def fold_decisions(witnesses: Sequence[tuple],
                   transactions_of: Callable[[list], list],
                   observer: Optional[RunObserver] = None,
                   domain: Any = 0) -> tuple[dict, dict, str, list]:
    """Fold :meth:`Epoch.decisions` witnesses into one epoch's outcome.

    The one witness walk behind the one-epoch results, the sharded merge and
    the streaming checkpoint.  Returns per-decider decide times, per-decider
    digests, and the first decider's digest and committed transactions (the
    epoch's, under agreement); every decision is replayed into ``observer``
    under ``domain``.
    """
    decide_times: dict[int, float] = {}
    digests: dict[int, str] = {}
    digest = ""
    committed: list = []
    for node_id, block, decide_time, block_digest in witnesses:
        decide_times[node_id] = decide_time
        digests[node_id] = block_digest
        transactions = transactions_of(block)
        if not digest:
            digest, committed = block_digest, transactions
        if observer is not None:
            observer.record_decision(node_id, block, decide_time,
                                     domain=domain, transactions=transactions,
                                     digest=block_digest)
    return decide_times, digests, digest, committed


def replay_cluster_decisions(observer: RunObserver, topology: Topology,
                             witnesses: Sequence[tuple],
                             domain_prefix: tuple = ()) -> None:
    """Replay :meth:`Epoch.cluster_decisions` witnesses into ``observer``
    under ``domain_prefix + ("cluster", index)``."""
    for node_id, block, decide_time, block_digest in witnesses:
        observer.record_decision(
            node_id, block, decide_time,
            domain=domain_prefix + ("cluster",
                                    topology.cluster_of(node_id).index),
            digest=block_digest)


# ---------------------------------------------------------------------------
# consensus runs (multi-hop)
# ---------------------------------------------------------------------------

def run_multihop_consensus(protocol: str, scenario: Scenario,
                           batched: bool = True, seed: int = 0,
                           config: Optional[ConsensusConfig] = None,
                           workload_spec: Optional[WorkloadSpec] = None,
                           observer: Optional[RunObserver] = None,
                           shards: Optional[int] = None,
                           shard_workers: int = 1) -> MultiHopRunResult:
    """Run the two-phase local + global consensus on a multi-hop scenario.

    Phase one runs ``protocol`` inside every cluster on the cluster's own
    channel; when a cluster's epoch-0 leader decides locally, it proposes
    the decided block into a global instance of the same protocol that the
    leaders run over the routed backbone channel (phase two).  Arguments,
    units and the determinism guarantee match :func:`run_consensus`; the
    scenario must be multi-hop.  The returned
    :class:`~repro.testbed.metrics.MultiHopRunResult` adds per-cluster local
    latencies (``local_latencies_s``, virtual seconds) and per-leader block
    digests; ``latency_s`` is the time the *slowest honest leader* decides
    globally.

    ``shards`` (``None`` = the classic single-heap path, bit-for-bit
    unchanged) partitions the clusters into that many contiguous groups,
    each with its own event heap and RNG streams, synchronized
    conservatively at barrier windows (see :mod:`repro.net.shard`).  A
    sharded result is a pure function of ``(protocol, scenario, workload,
    batched, seed, shards)``; ``shard_workers`` only picks how many worker
    processes execute the identical barrier schedule, so every worker count
    reproduces every metric bit for bit (property-tested in
    ``tests/testbed/test_shard_identity.py``).
    """
    check_composition(scenario, "run_multihop_consensus", multi_hop=True)
    from repro.testbed.sharding import (
        merge_multihop_reports,
        run_sharded_multihop_consensus,
    )
    if shards is not None:
        return run_sharded_multihop_consensus(
            protocol, scenario, shards=shards, shard_workers=shard_workers,
            batched=batched, seed=seed, config=config,
            workload_spec=workload_spec, observer=observer)
    deployment = build_deployment(scenario, batched=batched, seed=seed,
                                  **multihop_crypto_schemes(protocol, config))
    with closing(deployment):
        workload = TransactionWorkload(workload_spec, seed=seed)
        epoch = Epoch(deployment, protocol, config)
        epoch.propose(workload, observer=observer)

        def poll() -> bool:
            epoch.feed()
            return epoch.done()

        decided = deployment.sim.run_until(poll, timeout=scenario.timeout_s)
        return merge_multihop_reports([epoch.report()], protocol, scenario,
                                      batched, seed, decided,
                                      observer=observer)


# ---------------------------------------------------------------------------
# component experiments (broadcasts, Fig. 11; ABA, Fig. 12)
# ---------------------------------------------------------------------------

#: broadcast component -> (its class, the crypto schemes its runs deal)
_BROADCASTS: dict[str, tuple[Callable[..., Component], tuple[str, ...]]] = {
    "rbc": (BrachaRbc, (SCHEME_KEYRING,)),
    "rbc-small": (RbcSmall, (SCHEME_KEYRING,)),
    "prbc": (Prbc, (SCHEME_KEYRING, SCHEME_THRESHOLD_SIG)),
    "cbc": (Cbc, (SCHEME_KEYRING, SCHEME_THRESHOLD_SIG)),
    "cbc-small": (CbcSmall, (SCHEME_KEYRING, SCHEME_THRESHOLD_SIG)),
}


def _run_components(name: str, scenario: Scenario, batched: bool, seed: int,
                    schemes: Sequence[str], instances: int,
                    make: Callable[[DomainRuntime], Callable[[int], Component]],
                    value_for: Callable[[DomainRuntime, int], Any],
                    serial: bool = False, **fields: Any) -> ComponentRunResult:
    """Run ``instances`` components on every node to completion.

    ``make(runtime)`` gives a node's builder of instance ``i``;
    ``value_for(runtime, i)`` the node's input to it, ``None`` when the node
    waits for the proposer.  With ``serial`` only instance 0 starts, and
    each later one when the node's previous instance outputs.  Components
    are built node by node, instance by instance, then started in the same
    order.  Every honest output of an instance must equal the first one
    (:class:`DeploymentError` otherwise).  ``fields`` complete the result.
    """
    deployment = build_deployment(scenario, batched=batched, seed=seed,
                                  crypto_schemes=schemes)
    with closing(deployment):
        honest = set(deployment.honest_ids())
        latch = _CompletionLatch(honest, instances)
        #: the first honest output of each instance
        agreed: dict[int, Any] = {}
        built: dict[int, list[Component]] = {}

        def start(node_id: int, instance: int) -> None:
            value = value_for(deployment.runtimes[node_id], instance)
            if value is not None:
                deployment.nodes[node_id].run_task(
                    partial(built[node_id][instance].start, value))

        def on_output(node_id: int, instance: int, output: Any) -> None:
            latch.mark(node_id, instance)
            if node_id in honest \
                    and agreed.setdefault(instance, output) != output:
                raise DeploymentError(
                    f"{name} agreement violated for instance {instance}: "
                    f"node {node_id} output differs from an earlier honest one")
            if serial and instance + 1 < instances:
                start(node_id, instance + 1)

        for node_id, runtime in deployment.runtimes.items():
            build = make(runtime)
            built[node_id] = []
            for instance in range(instances):
                comp = build(instance)
                comp.on_output = partial(on_output, node_id)
                runtime.router.register(comp)
                built[node_id].append(comp)
        for node_id in built:
            for instance in range(1 if serial else instances):
                start(node_id, instance)

        finished = deployment.sim.run_until(latch.done,
                                            timeout=scenario.timeout_s)
        return ComponentRunResult(
            component=name, batched=batched, num_nodes=scenario.num_nodes,
            completed=finished,
            latency_s=deployment.sim.now if finished else float("nan"),
            channel_accesses=deployment.trace.total_channel_accesses,
            bytes_sent=deployment.trace.total_bytes_sent,
            collisions=deployment.trace.total_collisions,
            rounds_executed=sum(getattr(comp, "rounds_executed", 0)
                                for comps in built.values() for comp in comps),
            per_node_channel_accesses=deployment.trace.channel_accesses_per_node(),
            seed=seed, **fields)


def run_broadcast_experiment(component: str, parallelism: int = 1,
                             proposal_packets: int = 1, num_nodes: int = 4,
                             batched: bool = True, seed: int = 0,
                             scenario: Optional[Scenario] = None) -> ComponentRunResult:
    """Run ``parallelism`` parallel broadcast-component instances to completion.

    Args:
        component: ``rbc`` | ``rbc-small`` | ``cbc`` | ``cbc-small`` |
            ``prbc`` (:class:`DeploymentError` otherwise).
        parallelism: number of simultaneous instances; proposers rotate
            round-robin over the nodes.
        proposal_packets: proposal size in units of **maximum-size radio
            frames** (the x-axis of Fig. 11b); small variants broadcast
            one-byte values regardless.
        num_nodes: deployment size when ``scenario`` is not given.
        batched / seed / scenario: as in :func:`run_consensus`.

    Returns a :class:`~repro.testbed.metrics.ComponentRunResult`;
    ``latency_s`` is the virtual time at which the *last* honest node
    completed its *last* instance (NaN on timeout).  Honest-node agreement
    on every instance is asserted before returning.  Deterministic in
    ``(component, parallelism, proposal_packets, scenario, batched, seed)``.
    """
    if component not in _BROADCASTS:
        raise DeploymentError(
            f"unknown broadcast component {component!r}; "
            f"known: {sorted(_BROADCASTS)}")
    scenario = scenario or Scenario.single_hop(num_nodes)
    check_composition(scenario, "run_broadcast_experiment", multi_hop=False)
    factory, schemes = _BROADCASTS[component]
    tag = ("bcast", component)
    proposal_bytes = max(16, proposal_packets * scenario.radio.max_payload_bytes - 60)
    proposal_rng = random.Random(seed ^ 0xFACE)

    def make(runtime: DomainRuntime) -> Callable[[int], Component]:
        return lambda instance: factory(
            runtime.ctx, instance, tag=tag,
            proposer=instance % runtime.ctx.num_nodes)

    def value_for(runtime: DomainRuntime, instance: int) -> Any:
        if instance % runtime.ctx.num_nodes != runtime.local_id:
            return None
        if component == "rbc-small":
            return 1
        if component == "cbc-small":
            return list(range(runtime.ctx.quorum))
        return random_bytes(proposal_rng, proposal_bytes)

    return _run_components(component, scenario, batched, seed, schemes,
                           parallelism, make, value_for,
                           parallelism=parallelism,
                           proposal_packets=proposal_packets)


def run_aba_experiment(kind: str, parallel_instances: int = 1,
                       serial_instances: int = 0, num_nodes: int = 4,
                       batched: bool = True, seed: int = 0,
                       scenario: Optional[Scenario] = None) -> ComponentRunResult:
    """Run parallel or serial ABA instances to completion.

    Args:
        kind: ``lc`` (Bracha, local coin), ``sc`` (shared coin via threshold
            signatures) or ``cp`` (threshold coin flipping, BEAT's choice).
        parallel_instances: simultaneous instances (Fig. 12a mode); ignored
            when ``serial_instances`` > 0.
        serial_instances: when > 0, runs that many instances back to back,
            each starting when the node's previous instance decides locally
            (Fig. 12b / Dumbo's serial pattern).
        num_nodes / batched / seed / scenario: as in
            :func:`run_broadcast_experiment`.

    Node ``i`` inputs ``(i + instance) % 2`` to each instance: mixed inputs
    force coin rounds.

    Returns a :class:`~repro.testbed.metrics.ComponentRunResult` with
    ``rounds_executed`` summed over all nodes and instances; ``latency_s``
    is virtual seconds (NaN on timeout).  Honest-node agreement on every
    instance is asserted before returning.  Deterministic in all arguments
    for a fixed ``seed``.
    """
    if kind not in ABA_BY_COIN:
        raise DeploymentError(f"unknown ABA kind {kind!r}; expected lc, sc or cp")
    scenario = scenario or Scenario.single_hop(num_nodes)
    check_composition(scenario, "run_aba_experiment", multi_hop=False)
    tag = ("aba-exp", kind)
    serial = serial_instances > 0

    def make(runtime: DomainRuntime) -> Callable[[int], Component]:
        return partial(aba_factory(kind, runtime.ctx, runtime.router,
                                   coin_tag=tag, coin_name="aba-exp"), tag=tag)

    return _run_components(
        f"aba-{kind}", scenario, batched, seed,
        (SCHEME_KEYRING, *coin_schemes(kind)),
        serial_instances if serial else parallel_instances, make,
        lambda runtime, instance: (runtime.local_id + instance) % 2,
        serial=serial, parallelism=1 if serial else parallel_instances,
        serial_instances=serial_instances)
