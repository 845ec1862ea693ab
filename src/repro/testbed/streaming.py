"""Streaming multi-epoch consensus: sustained load, pipelining, checkpoint/GC.

Every other harness entry point runs exactly *one* epoch; this module is the
fifth entry point, :func:`run_streaming_consensus`, which drives the same
protocol cores through ``E`` back-to-back epochs on **one long-lived
deployment** against an open-loop transaction arrival process
(:class:`~repro.testbed.workload.OpenLoopArrivals`).  It is what answers the
paper's deployment question -- sustained throughput and latency under
continuous client load -- rather than the per-epoch snapshots of the figures.

Shape of a streaming run
------------------------

* **Arrivals** -- each node receives a seeded Poisson-like stream of
  transactions (virtual-time inter-arrival gaps from a per-node child RNG,
  never the simulator RNG) into a bounded :class:`Mempool`; arrivals beyond
  the bound are dropped and counted, so memory stays O(backlog) under
  overload.
* **Epochs** -- epoch ``e`` installs fresh protocol instances tagged with
  ``e`` on the deployment's existing routers/transports (dealt keys are
  reused; only the per-epoch tags change), every eligible node proposes up
  to ``batch_size`` transactions drained from its mempool, and the epoch is
  *settled* once every honest node (and every honest leader, multi-hop) has
  decided it.  One :class:`~repro.testbed.harness.Epoch` drives each epoch
  on either hop count; the runner keeps one ``in_flight`` record per
  started, not yet checkpointed epoch.
* **Pipelining** -- ``pipeline_depth`` extra epochs may be in flight at
  once: with depth ``d``, epoch ``e`` starts as soon as epoch ``e - 1 - d``
  has completed, so at depth 1 the RBC dissemination of epoch ``e + 1``
  overlaps the ABA/decryption tail of epoch ``e`` on the shared channel.
  Tags keep the message streams of concurrent epochs apart.
* **Checkpoint/GC** -- when the oldest in-flight epoch settles it is
  checkpointed: its committed transactions are folded into the running
  ledger digest, its metrics are recorded, and every protocol instance of
  the epoch releases its router and transport state
  (:meth:`repro.protocols.base.ConsensusProtocol.release`).  Live state is
  therefore bounded by the pipeline window, not the stream length.

What a stream refuses -- an ``epoch-crash`` its epochs never reach, a
membership schedule on a multi-hop or pipelined stream -- is stated once,
in :func:`repro.testbed.harness.check_composition`, which every entry point
calls.

Determinism contract
--------------------

``run_streaming_consensus`` is a pure function of
``(protocol, scenario, spec, batched, seed, config)`` -- bit-reproducible
across reruns and worker counts like the other entry points (guarded by
``tests/testbed/test_streaming.py``).  Additionally, because arrival streams
are pace independent and nodes drain their mempools in FIFO arrival order,
a fault-free run that stays **saturated** (every node's backlog covers its
batch size at every proposal) commits the same transactions to the same
epochs at any pipeline depth: per-epoch block digests are bit-identical
between depth 0 and depth 1.  ``StreamingSpec.warmup >= epochs *
batch_size`` guarantees saturation regardless of the offered load (the
regression test and the ``streaming-pipeline`` experiment pin the identity
at 50 epochs this way); unsaturated streams may legitimately compose epochs
differently at different depths -- pipelined epochs propose *earlier*, when
fewer arrivals are buffered.
"""

from __future__ import annotations

import itertools
import statistics
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.protocols.base import ConsensusConfig
from repro.testbed.byzantine import CRASH_AT_EPOCH
from repro.testbed.harness import (
    DeploymentError,
    Epoch,
    build_deployment,
    check_composition,
    fold_decisions,
    multihop_crypto_schemes,
    replay_cluster_decisions,
)
from repro.testbed.ingress import ClassedArrivals, IngressGateway, IngressSpec
from repro.testbed.invariants import RunObserver
from repro.testbed.membership import MembershipController, MembershipSchedule
from repro.testbed.metrics import (
    ClassRecord,
    CommitteeRecord,
    EpochRecord,
    StreamingRunResult,
    chain_digest,
    percentile,
)
from repro.testbed.scenario_packs import ScenarioController, ScenarioPack
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import (
    ArrivalSpec,
    OpenLoopArrivals,
    TransactionWorkload,
    WorkloadSpec,
)


@dataclass(frozen=True)
class StreamingSpec:
    """Configuration of one streaming run.

    Units: ``epochs`` counts consensus epochs; ``batch_size`` is the maximum
    number of transactions a node drains from its mempool per epoch;
    ``pipeline_depth`` is the number of *extra* epochs allowed in flight
    beyond the oldest incomplete one (0 = strictly sequential, 1 = epoch
    ``e + 1`` disseminates while epoch ``e`` finishes).  Every epoch's state
    is released at its checkpoint.
    """

    epochs: int = 16
    batch_size: int = 8
    pipeline_depth: int = 0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: arrivals per node pre-buffered into the mempool at t=0 (clients queued
    #: while the system was offline); lets a stream start saturated instead
    #: of ramping up from empty mempools.
    warmup: int = 0
    #: when the next epoch may start disseminating (pipeline_depth > 0):
    #: ``locked`` waits until every honest node's *content* for the previous
    #: epoch is frozen (its ``pipeline_ready`` point -- the common subset
    #: lock for HoneyBadger/BEAT), so pipelining can never change what an
    #: in-flight epoch decides; ``eager`` starts the moment the window has
    #: room, claiming the channel-idle gaps of ABA coin rounds for the next
    #: epoch's RBC at the cost of pipelining-dependent epoch composition.
    pipeline_gate: str = "locked"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pipeline_depth < 0:
            raise ValueError(
                f"pipeline_depth must be >= 0, got {self.pipeline_depth}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.pipeline_gate not in ("locked", "eager"):
            raise ValueError(f"unknown pipeline_gate {self.pipeline_gate!r}; "
                             f"known: locked, eager")


class Mempool:
    """One node's bounded FIFO backlog of not-yet-proposed transactions.

    Admission dedups against everything currently pooled *or* in flight
    (proposed but not yet committed) and enforces ``capacity`` on the pooled
    backlog; both kinds of rejection are counted.  Committed transactions are
    forgotten entirely, which is what keeps memory proportional to
    ``backlog + in-flight`` rather than to stream history.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._pool: dict[bytes, None] = {}  # insertion-ordered set
        self._in_flight: set[bytes] = set()
        self.admitted = 0
        self.dropped_capacity = 0
        self.dropped_duplicate = 0
        self.committed = 0

    @property
    def backlog(self) -> int:
        """Transactions waiting to be proposed."""
        return len(self._pool)

    def admit(self, transaction: bytes) -> bool:
        """Admit one arriving transaction (False = dropped, with the reason
        counted in ``dropped_duplicate`` / ``dropped_capacity``)."""
        if transaction in self._pool or transaction in self._in_flight:
            self.dropped_duplicate += 1
            return False
        if len(self._pool) >= self.capacity:
            self.dropped_capacity += 1
            return False
        self._pool[transaction] = None
        self.admitted += 1
        return True

    def take(self, count: int) -> list:
        """Drain up to ``count`` transactions in FIFO arrival order.

        Taken transactions move to the in-flight set (still deduped against,
        no longer counted in ``backlog``) until :meth:`commit` sees them or
        :meth:`requeue` returns them.
        """
        batch = list(itertools.islice(self._pool, max(0, count)))
        for transaction in batch:
            del self._pool[transaction]
            self._in_flight.add(transaction)
        return batch

    def commit(self, transactions) -> None:
        """Forget committed transactions (from in-flight or, defensively,
        from the pool when another node proposed the same bytes first)."""
        for transaction in transactions:
            if transaction in self._in_flight:
                self._in_flight.discard(transaction)
                self.committed += 1
            elif transaction in self._pool:
                del self._pool[transaction]
                self.committed += 1

    def requeue(self, transactions) -> None:
        """Return in-flight transactions to the *front* of the pool.

        Called at checkpoint time for proposed-but-not-committed
        transactions (their proposer was excluded from the epoch's common
        subset); front placement preserves arrival order, so they lead the
        next epoch's batch instead of starving behind newer arrivals.
        """
        returned = [transaction for transaction in transactions
                    if transaction in self._in_flight]
        if not returned:
            return
        for transaction in returned:
            self._in_flight.discard(transaction)
        refilled = {transaction: None for transaction in returned}
        refilled.update(self._pool)
        self._pool = refilled

    def drain(self) -> list:
        """Hand over every pooled transaction (FIFO) and forget it.

        Called when this node departs the committee: its uncommitted backlog
        is redistributed to the survivors (clients fail over).  Each entry
        is the argument tuple of a survivor's :meth:`admit` -- here just
        ``(transaction,)``; the priority pool's entries carry the class and
        fee marks too.  In-flight state is cleared too -- at an epoch
        boundary it is empty anyway (every taken batch was committed or
        requeued at checkpoint time).
        """
        drained = [(transaction,) for transaction in self._pool]
        self._pool.clear()
        self._in_flight.clear()
        return drained


@dataclass
class _InFlightEpoch:
    """What the stream keeps per started, not yet checkpointed epoch."""

    driver: Epoch
    start_s: float
    #: the proposers' mempool backlogs when the epoch started
    backlogs: list
    #: per proposer, the batch it drained for this epoch
    batches: dict[int, list] = field(default_factory=dict)


class StreamingRun:
    """Internal driver of one streaming run (kept as a class so tests can
    inspect the deployment's post-run state, e.g. the GC bounds)."""

    def __init__(self, protocol: str, scenario: Scenario, spec: StreamingSpec,
                 batched: bool = True, seed: int = 0,
                 config: Optional[ConsensusConfig] = None,
                 observer: Optional[RunObserver] = None,
                 pack: Optional[ScenarioPack] = None,
                 membership: Optional[MembershipSchedule] = None,
                 ingress: Optional[IngressSpec] = None) -> None:
        self.protocol = protocol
        self.scenario = scenario
        self.spec = spec
        self.batched = batched
        self.seed = seed
        self.base_config = config or ConsensusConfig()
        self.observer = observer
        self.pack = pack
        self.ingress = ingress
        check_composition(scenario, "run_streaming_consensus",
                          epochs=spec.epochs,
                          pipeline_depth=spec.pipeline_depth,
                          membership=membership is not None)
        # (a single-hop deployment has no global domain to deal for)
        self.deployment = build_deployment(
            scenario, batched=batched, seed=seed,
            **multihop_crypto_schemes(protocol, self.base_config))
        #: time-varying network conditions (None = static scenario only)
        self.controller = ScenarioController(pack, self.deployment) \
            if pack is not None else None
        #: dynamic membership (None = fixed committee)
        schedule = membership
        if schedule is None and scenario.membership is not None:
            schedule = MembershipSchedule.from_churn(
                scenario.membership, scenario.num_nodes, seed=seed)
        if schedule is not None:
            if len(schedule.universe) != scenario.num_nodes:
                raise ValueError(
                    f"universe: the schedule covers {len(schedule.universe)} "
                    f"nodes but the scenario deploys {scenario.num_nodes}")
        self.membership = MembershipController(
            schedule, self.deployment, protocol=protocol,
            base_config=self.base_config, seed=seed) \
            if schedule is not None else None
        self.committees: list[CommitteeRecord] = []
        #: committed-latency bookkeeping of ingress runs: pooled tx ->
        #: (class, submit_s), shared by every gateway, popped at checkpoint
        #: time
        self.tx_meta: dict = {}
        if ingress is not None:
            self.arrivals: Any = ClassedArrivals(
                ingress, spec.arrival, scenario.num_nodes, seed=seed)
            self.gateways = {
                node_id: IngressGateway(ingress, spec.arrival.max_mempool,
                                        meta=self.tx_meta)
                for node_id in self.deployment.nodes}
            self.mempools = {node_id: gateway.pool
                             for node_id, gateway in self.gateways.items()}
            #: per node, where an arrival ``(now, transaction, *marks)`` goes
            self.submit = {node_id: gateway.submit
                           for node_id, gateway in self.gateways.items()}
            self.class_latencies: list[list] = [
                [] for _ in ingress.classes]
            self.class_committed = [0] * len(ingress.classes)
        else:
            self.arrivals = OpenLoopArrivals(spec.arrival, scenario.num_nodes,
                                             seed=seed)
            self.mempools = {node_id: Mempool(spec.arrival.max_mempool)
                             for node_id in self.deployment.nodes}
            # the FIFO pool has no gate, hence no use for the clock
            self.submit = {
                node_id: (lambda _now, transaction, admit=pool.admit:
                          admit(transaction))
                for node_id, pool in self.mempools.items()}
        #: conflicting-batch source for equivocating proposers (per epoch)
        self.workload = TransactionWorkload(
            WorkloadSpec(batch_size=spec.batch_size,
                         transaction_bytes=spec.arrival.transaction_bytes,
                         flavor=spec.arrival.flavor), seed=seed)
        #: started, not yet checkpointed epochs (at most the pipeline window)
        self.in_flight: dict[int, _InFlightEpoch] = {}
        # stream progress
        self.next_epoch = 0
        self.checkpoint_cursor = 0
        self.records: list[EpochRecord] = []
        self.ledger_digest = ""
        self.committed_transactions = 0
        self.last_decide_s = float("nan")
        #: ``sim.milestones`` when the last poll body ran (None: never)
        self._polled_at: Optional[int] = None

    # ----------------------------------------------------------- arrival pump
    def _pump(self, node_id: int) -> None:
        """Schedule node ``node_id``'s next arrival as a simulator event."""
        when, *offer = self.arrivals.next_arrival(node_id)
        self.deployment.sim.schedule_at(
            when, lambda: self._arrive(node_id, offer))

    def _arrive(self, node_id: int, offer: list) -> None:
        self.submit[node_id](self.deployment.sim.now, *offer)
        self._pump(node_id)

    # ------------------------------------------------------------ epoch starts
    def _crash_epoch_victims(self, epoch: int) -> None:
        """Fire the ``epoch-crash`` fault: victims go silent at epoch k."""
        if epoch != CRASH_AT_EPOCH:
            return
        for node_id in self.scenario.byzantine.nodes_with("epoch-crash"):
            node = self.deployment.nodes.get(node_id)
            if node is not None and not node.crashed:
                node.crash()

    def _membership_boundary(self, epoch: int) -> CommitteeRecord:
        """Apply pending churn at the boundary entering ``epoch``.

        Runs while the stream is quiescent (membership forces depth 0, so
        every earlier epoch is checkpointed).  Departed nodes' pooled
        transactions are round-robined into the survivors' mempools in FIFO
        order -- a transfer between pools, class and fee marks included, not
        a new offer: admission dedups and counts as usual, no gateway
        counter moves -- then the controller re-deals and rebinds the
        committee with every checkpointed epoch's tag pre-released.
        """
        controller = self.membership
        outcome = controller.advance(self.deployment.sim.now)
        if outcome.changed:
            removed = outcome.departed + outcome.crashed
            survivors = controller.members
            moved: list = []
            for node_id in removed:
                moved.extend(self.mempools[node_id].drain())
            for index, entry in enumerate(moved):
                if self.mempools[survivors[index % len(survivors)]].admit(
                        *entry):
                    controller.redistributed += 1
                else:
                    # refused by the survivor's pool: it will never commit,
                    # so its latency mark must not outlive it
                    self.tx_meta.pop(entry[0], None)
            controller.reconfigure(released_roots=tuple(
                ("epoch", done) for done in range(self.checkpoint_cursor)))
        return CommitteeRecord(
            epoch=epoch, members=controller.members, joined=outcome.joined,
            departed=outcome.departed, crashed=outcome.crashed,
            reconfigured=outcome.changed)

    def _start_epoch(self, epoch: int) -> None:
        deployment = self.deployment
        self._crash_epoch_victims(epoch)
        if self.membership is not None:
            # before the driver: the boundary rebuilds deployment.runtimes
            self.committees.append(self._membership_boundary(epoch))
        byzantine = self.scenario.byzantine.byzantine_ids
        driver = Epoch(deployment, self.protocol,
                       replace(self.base_config, epoch=epoch))
        record = self.in_flight[epoch] = _InFlightEpoch(
            driver, start_s=deployment.sim.now,
            backlogs=[self.mempools[node_id].backlog
                      for node_id in sorted(deployment.runtimes)
                      if node_id not in byzantine])

        def drain(node_id: int, _runtime) -> list:
            batch = self.mempools[node_id].take(self.spec.batch_size)
            record.batches[node_id] = batch
            return batch

        driver.propose(self.workload, observer=self.observer,
                       domain_prefix=("epoch", epoch), batch_for=drain,
                       equivocation_epoch=("equiv", epoch))
        self.next_epoch = epoch + 1

    # -------------------------------------------------------------- lifecycle
    def _epoch_ready(self, epoch: int) -> bool:
        """Whether epoch ``epoch`` allows the next epoch to start (depth > 0):
        its content is locked (:meth:`Epoch.content_locked`), so the next
        epoch's dissemination can no longer change its block."""
        if epoch < 0 or self.spec.pipeline_gate == "eager":
            return True
        record = self.in_flight.get(epoch)  # None: already checkpointed
        return record is None or record.driver.content_locked()

    def _checkpoint(self, epoch: int) -> None:
        """Record, commit and release one settled epoch."""
        record = self.in_flight.pop(epoch)
        driver = record.driver
        domain_prefix = ("epoch", epoch)
        decide_times, _digests, digest, committed = fold_decisions(
            driver.decisions(), driver.transactions, self.observer,
            driver.decision_domain(domain_prefix))
        if self.observer is not None:
            replay_cluster_decisions(
                self.observer, self.scenario.topology,
                driver.cluster_decisions(), domain_prefix)
        decide_s = max(decide_times.values())
        committed_set = set(committed)
        for mempool in self.mempools.values():
            mempool.commit(committed)
        # Proposed-but-uncommitted batches (proposer excluded from the common
        # subset) go back to the front of their mempool for a later epoch.
        for node_id, batch in record.batches.items():
            leftovers = [transaction for transaction in batch
                         if transaction not in committed_set]
            if leftovers:
                self.mempools[node_id].requeue(leftovers)
        backlogs = record.backlogs
        self.records.append(EpochRecord(
            epoch=epoch, start_s=record.start_s, decide_s=decide_s,
            latency_s=decide_s - record.start_s,
            committed_transactions=len(committed),
            block_digest=digest,
            backlog_max=max(backlogs) if backlogs else 0,
            backlog_mean=statistics.fmean(backlogs) if backlogs else 0.0))
        self.ledger_digest = chain_digest(self.ledger_digest, digest)
        self.committed_transactions += len(committed)
        self.last_decide_s = decide_s
        if self.ingress is not None:
            # Client-observed latency: submit (original arrival, even when
            # the gate deferred it) -> the epoch's decide instant.
            for transaction in committed:
                meta = self.tx_meta.pop(transaction, None)
                if meta is not None:
                    class_index, submit_s = meta
                    self.class_latencies[class_index].append(
                        decide_s - submit_s)
                    self.class_committed[class_index] += 1
            # Backlogs just settled (commits + requeues landed): give every
            # gateway's defer queue a chance to re-offer parked load.
            for node_id in sorted(self.gateways):
                self.gateways[node_id].release_deferred()
        driver.release()
        self.checkpoint_cursor = epoch + 1

    # ------------------------------------------------------------------- run
    def _poll(self) -> bool:
        """Advance the stream: checkpoint settled epochs, feed global
        instances, start eligible epochs.  True once every epoch is
        checkpointed.

        Checkpointing runs *before* starts within one pass so that, when an
        epoch settles and its successor becomes eligible at the same
        simulated instant, commits and requeues land in the mempools before
        the successor drains them -- regardless of pipeline depth (part of
        the depth-0-vs-depth-1 identity contract).

        The body reads only decisions, locked common subsets, crash flags
        and state it writes itself, so it runs only when ``sim.milestones``
        moved since it last ran: every other event leaves its answer as it
        was (False -- a True one ended the run).  The counter is recorded
        before the body, so a milestone the body itself causes (a crash at
        an epoch start) re-arms the next poll.
        """
        milestones = self.deployment.sim.milestones
        if milestones == self._polled_at:
            return False
        self._polled_at = milestones
        window = 1 + self.spec.pipeline_depth
        progressed = True
        while progressed:
            progressed = False
            while (self.checkpoint_cursor < self.next_epoch
                   and self.in_flight[self.checkpoint_cursor].driver.settled()):
                self._checkpoint(self.checkpoint_cursor)
                progressed = True
            for record in self.in_flight.values():
                record.driver.feed()
            if (self.next_epoch < self.spec.epochs
                    and self.next_epoch - self.checkpoint_cursor < window
                    and self._epoch_ready(self.next_epoch - 1)):
                self._start_epoch(self.next_epoch)
                progressed = True
        return self.checkpoint_cursor >= self.spec.epochs

    def run(self) -> StreamingRunResult:
        """Execute the stream to completion (or the scenario timeout)."""
        deployment = self.deployment
        if self.membership is not None:
            self.membership.install()
        if self.controller is not None:
            self.controller.install()
        for node_id in sorted(self.mempools):
            # Warmup: the first `warmup` arrivals of each stream are already
            # buffered when the stream starts (clients queued offline): they
            # all present at t=0, so an admission gate judges them like any
            # t=0 burst.
            for _ in range(self.spec.warmup):
                _when, *offer = self.arrivals.next_arrival(node_id)
                self.submit[node_id](0.0, *offer)
            self._pump(node_id)
        finished = deployment.sim.run_until(self._poll,
                                            timeout=self.scenario.timeout_s)
        dropped_capacity = sum(m.dropped_capacity
                               for m in self.mempools.values())
        dropped_duplicate = sum(m.dropped_duplicate
                                for m in self.mempools.values())
        admitted = sum(m.admitted for m in self.mempools.values())
        return StreamingRunResult(
            protocol=self.protocol, batched=self.batched,
            num_nodes=self.scenario.num_nodes,
            epochs_target=self.spec.epochs,
            epochs_completed=self.checkpoint_cursor,
            decided=bool(finished),
            pipeline_depth=self.spec.pipeline_depth,
            offered_load_tps=self.spec.arrival.rate_tps,
            per_epoch=self.records,
            committed_transactions=self.committed_transactions,
            duration_s=self.last_decide_s if finished else float("nan"),
            ledger_digest=self.ledger_digest,
            arrivals_generated=sum(self.arrivals.generated(node_id)
                                   for node_id in range(
                                       self.scenario.num_nodes)),
            arrivals_admitted=admitted,
            arrivals_dropped_capacity=dropped_capacity,
            arrivals_dropped_duplicate=dropped_duplicate,
            channel_accesses=deployment.trace.total_channel_accesses,
            bytes_sent=deployment.trace.total_bytes_sent,
            collisions=deployment.trace.total_collisions,
            sim_events=deployment.sim.events_processed,
            seed=self.seed,
            scenario=self.pack.name if self.pack is not None else "",
            phases=self.controller.phase_records(self.records)
            if self.controller is not None else [],
            committees=self.committees,
            classes=self._class_records())

    def _class_records(self) -> list:
        if self.ingress is None:
            return []
        gateways = [self.gateways[node_id] for node_id in sorted(self.gateways)]
        records = []
        for index, spec in enumerate(self.ingress.classes):
            latencies = self.class_latencies[index]
            records.append(ClassRecord(
                name=spec.name, priority=spec.priority,
                offered=sum(g.offered[index] for g in gateways),
                admitted=sum(g.admitted[index] for g in gateways),
                shed=sum(g.shed[index] for g in gateways),
                deferred_pending=sum(g.deferred_pending(index)
                                     for g in gateways),
                duplicates=sum(g.duplicates[index] for g in gateways),
                committed=self.class_committed[index],
                p50_latency_s=percentile(latencies, 0.50),
                p90_latency_s=percentile(latencies, 0.90),
                p99_latency_s=percentile(latencies, 0.99)))
        return records


def run_streaming_consensus(protocol: str, scenario: Scenario,
                            spec: Optional[StreamingSpec] = None,
                            batched: bool = True, seed: int = 0,
                            config: Optional[ConsensusConfig] = None,
                            observer: Optional[RunObserver] = None,
                            pack: Optional[ScenarioPack] = None,
                            membership: Optional[MembershipSchedule] = None,
                            ingress: Optional[IngressSpec] = None) -> StreamingRunResult:
    """Run ``spec.epochs`` back-to-back consensus epochs under open-loop load.

    The fifth harness entry point.  Works on single-hop *and* multi-hop
    scenarios: multi-hop streams replay the two-phase construction per epoch
    with the cluster leaders pinned to ``Deployment.epoch_leaders`` (rotating
    a leader mid-stream would re-wire the backbone).

    Args:
        protocol: canonical protocol name (``honeybadger-sc``, ``beat``, ...).
        scenario: the deployment description; ``scenario.timeout_s`` bounds
            the **whole stream** in virtual seconds.
        spec: the :class:`StreamingSpec` (epochs, per-epoch batch size,
            pipeline depth, arrival process).
        batched / seed / config / observer: as in
            :func:`repro.testbed.harness.run_consensus`; the observer sees
            per-epoch domains (``("epoch", e)``, or ``("epoch", e,
            "cluster", c)`` / ``("epoch", e, "global")`` for multi-hop), so
            the campaign invariant checkers judge every epoch independently.
        pack: an optional :class:`~repro.testbed.scenario_packs.ScenarioPack`
            of time-varying network conditions, applied from simulator time
            by a :class:`~repro.testbed.scenario_packs.ScenarioController`;
            the result then carries per-phase throughput/latency/drop
            summaries in ``phases``.  The caller is responsible for a
            ``scenario.timeout_s`` that covers the pack's timeline.
        membership: an optional
            :class:`~repro.testbed.membership.MembershipSchedule` of node
            join/leave/permanent-crash events, applied at epoch boundaries
            by a :class:`~repro.testbed.membership.MembershipController`
            (single-hop, ``pipeline_depth == 0`` only:
            :func:`repro.testbed.harness.check_composition`); overrides the
            schedule ``scenario.membership`` would expand to.  The result
            then carries one :class:`~repro.testbed.metrics.CommitteeRecord`
            per epoch in ``committees``.
        ingress: an optional :class:`~repro.testbed.ingress.IngressSpec`
            putting a client-facing ingress in front of every node:
            class-marked aggregated arrivals, a priority mempool per
            gateway, and an admission gate.  Composes with multi-hop
            scenarios (a gateway per node of every cluster), packs and
            membership schedules (a departed gateway's pooled transactions
            move to the survivors' pools with their class and fee marks).
            The result then carries one
            :class:`~repro.testbed.metrics.ClassRecord` per transaction
            class in ``classes`` (per-class dispositions + client-observed
            submit->commit latency percentiles).  ``None`` (the default)
            keeps the plain FIFO path bit-identical to earlier releases;
            so does the degenerate
            :meth:`~repro.testbed.ingress.IngressSpec.fifo_equivalent`
            spec (pinned by ``tests/testbed/test_ingress.py``).

    Returns a :class:`~repro.testbed.metrics.StreamingRunResult`; all times
    are virtual seconds and ``throughput_tps`` is committed transactions per
    virtual second.  Deterministic in all arguments (see the module
    docstring for the contract, including the saturated depth-0-vs-depth-1
    digest identity).
    """
    if spec is None:
        spec = StreamingSpec()
    if scenario.num_nodes < 1:
        raise DeploymentError("streaming needs at least one node")
    run = StreamingRun(protocol, scenario, spec, batched=batched, seed=seed,
                       config=config, observer=observer, pack=pack,
                       membership=membership, ingress=ingress)
    with closing(run.deployment):
        return run.run()
