"""Safety/liveness invariant checking for testbed runs.

The paper's protocols promise, under the asynchronous model with at most
``f`` Byzantine nodes per ``N = 3f + 1`` domain:

* **agreement**    -- no two honest nodes decide different blocks;
* **total order**  -- honest nodes commit the same transactions in the same
  canonical order (strictly stronger than digest equality only if digests
  collide, but checked independently as a sequence comparison);
* **validity**     -- every committed transaction originates from some node's
  proposal (no fabrication by the adversary or the transport);
* **liveness**     -- honest nodes decide within the scenario timeout,
  *provided* a decision quorum survives and eventual delivery holds.

A :class:`RunObserver` is threaded through the harness entry points; it
records what every node proposed (including garbage and equivocated variants)
and what every honest node decided, per consensus *domain* (the single-hop
network, one multi-hop cluster, or the multi-hop leader group).  The checkers
then turn a populated observer into :class:`InvariantVerdict` records;
:func:`check_all` is the judge every caller runs, and it alone decides which
stream-layer gates a run gets from the layers its result carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.protocols.base import block_digest
from repro.testbed.metrics import chain_digest, percentile

#: how a recorded proposal was produced
PROPOSAL_KINDS = ("honest", "garbage", "equivocation")


@dataclass(frozen=True)
class ProposalRecord:
    """One proposal as submitted to a consensus domain."""

    node_id: int
    domain: Any
    transactions: tuple[bytes, ...]
    kind: str = "honest"

    def __post_init__(self) -> None:
        if self.kind not in PROPOSAL_KINDS:
            raise ValueError(f"unknown proposal kind {self.kind!r}; "
                             f"known: {PROPOSAL_KINDS}")


@dataclass(frozen=True)
class DecisionRecord:
    """One honest node's decision in a consensus domain.

    ``block`` is the decided sequence exactly as the protocol output it;
    ``transactions`` is the flat application-level transaction list (for the
    multi-hop global domain the harness decodes cluster contributions into
    transactions; elsewhere the two coincide).
    """

    node_id: int
    domain: Any
    digest: str
    decide_time: float
    block: tuple[bytes, ...]
    transactions: tuple[bytes, ...]


@dataclass(frozen=True)
class InvariantVerdict:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str = ""


class RunObserver:
    """Collects proposals and decisions during one harness run."""

    def __init__(self) -> None:
        self.proposals: list[ProposalRecord] = []
        self.decisions: list[DecisionRecord] = []

    # ---------------------------------------------------------------- record
    def record_proposal(self, node_id: int, transactions: list[bytes],
                        domain: Any = 0, kind: str = "honest") -> None:
        """Record a proposal submitted by ``node_id`` in ``domain``."""
        self.proposals.append(ProposalRecord(
            node_id=node_id, domain=domain,
            transactions=tuple(transactions), kind=kind))

    def record_decision(self, node_id: int, block: list[bytes],
                        decide_time: float, domain: Any = 0,
                        transactions: Optional[list[bytes]] = None,
                        digest: Optional[str] = None) -> None:
        """Record an honest node's decision in ``domain``.

        ``digest`` may be passed when the caller already holds the block
        digest (the harness gets it from the protocol witness), avoiding a
        second hash of the block.
        """
        block_tuple = tuple(block)
        self.decisions.append(DecisionRecord(
            node_id=node_id, domain=domain,
            digest=digest if digest is not None else block_digest(list(block)),
            decide_time=decide_time, block=block_tuple,
            transactions=tuple(transactions) if transactions is not None
            else block_tuple))

    # ----------------------------------------------------------------- views
    def domains(self) -> list[Any]:
        """Every domain that saw at least one decision, in stable order."""
        seen: list[Any] = []
        for decision in self.decisions:
            if decision.domain not in seen:
                seen.append(decision.domain)
        return seen

    def decisions_in(self, domain: Any) -> list[DecisionRecord]:
        """Decisions recorded for one domain."""
        return [decision for decision in self.decisions
                if decision.domain == domain]

    def proposed_transactions(self) -> set[bytes]:
        """Union of every proposed transaction (all kinds, all domains)."""
        proposed: set[bytes] = set()
        for proposal in self.proposals:
            proposed.update(proposal.transactions)
        return proposed


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_agreement(observer: RunObserver) -> InvariantVerdict:
    """All honest decisions within each domain share one block digest."""
    for domain in observer.domains():
        digests = {decision.digest for decision in observer.decisions_in(domain)}
        if len(digests) > 1:
            return InvariantVerdict(
                "agreement", False,
                f"domain {domain!r} split over digests {sorted(digests)}")
    return InvariantVerdict("agreement", True)


def check_total_order(observer: RunObserver) -> InvariantVerdict:
    """All honest decisions within each domain are the identical sequence."""
    for domain in observer.domains():
        decisions = observer.decisions_in(domain)
        reference = decisions[0]
        for decision in decisions[1:]:
            if decision.block != reference.block:
                return InvariantVerdict(
                    "total-order", False,
                    f"domain {domain!r}: node {decision.node_id} ordered "
                    f"{len(decision.block)} items differently from node "
                    f"{reference.node_id}")
    return InvariantVerdict("total-order", True)


def check_validity(observer: RunObserver) -> InvariantVerdict:
    """Every committed transaction traces back to some recorded proposal."""
    proposed = observer.proposed_transactions()
    for decision in observer.decisions:
        for transaction in decision.transactions:
            if transaction not in proposed:
                return InvariantVerdict(
                    "validity", False,
                    f"domain {decision.domain!r}: node {decision.node_id} "
                    f"committed a transaction never proposed "
                    f"({transaction[:24]!r}...)")
    return InvariantVerdict("validity", True)


def check_liveness(observer: RunObserver, decided: bool,
                   expect_decision: bool, timeout_s: float,
                   affected_domains: Optional[set[Any]] = None) -> InvariantVerdict:
    """Decision behaviour matches the fault model's expectation.

    With ``expect_decision`` the run must have decided, and every recorded
    decision must fall inside the scenario timeout.  Without it (quorum loss,
    permanent partition) *no* honest node may have decided in the affected
    domains -- deciding without a live quorum would be a safety bug, not a
    liveness one.  ``affected_domains`` scopes the non-decision expectation
    (a multi-hop run whose leader backbone lost its quorum still decides in
    the healthy clusters); ``None`` means every domain.
    """
    if expect_decision:
        if not decided:
            return InvariantVerdict("liveness", False,
                                    "run timed out without a decision")
        late = [decision for decision in observer.decisions
                if decision.decide_time > timeout_s]
        if late:
            return InvariantVerdict(
                "liveness", False,
                f"{len(late)} decisions after the {timeout_s}s timeout")
        return InvariantVerdict("liveness", True)
    affected = [decision for decision in observer.decisions
                if affected_domains is None
                or decision.domain in affected_domains]
    if decided or affected:
        return InvariantVerdict(
            "no-decision-without-quorum", False,
            f"run decided={decided} with {len(affected)} honest decisions "
            f"despite quorum loss")
    return InvariantVerdict("no-decision-without-quorum", True)


def check_ledger_continuity(per_epoch: Sequence[Any],
                            ledger_digest: str) -> InvariantVerdict:
    """The decided history is gap-free and the ledger digest re-derives.

    ``per_epoch`` is a streaming run's
    :class:`~repro.testbed.metrics.EpochRecord` list.  Three properties,
    which together mean no scenario phase lost, duplicated or reordered an
    epoch: epoch indices are contiguous from 0, every epoch carries a block
    digest, and re-folding the per-epoch digests with the canonical chaining
    rule reproduces the run's ledger digest byte for byte.
    """
    rebuilt = ""
    for position, record in enumerate(per_epoch):
        if record.epoch != position:
            return InvariantVerdict(
                "ledger-continuity", False,
                f"epoch sequence has a gap: position {position} holds epoch "
                f"{record.epoch}")
        if not record.block_digest:
            return InvariantVerdict(
                "ledger-continuity", False,
                f"epoch {record.epoch} checkpointed without a block digest")
        rebuilt = chain_digest(rebuilt, record.block_digest)
    if rebuilt != ledger_digest:
        return InvariantVerdict(
            "ledger-continuity", False,
            f"rebuilt ledger digest {rebuilt[:16]}... != recorded "
            f"{ledger_digest[:16]}...")
    return InvariantVerdict("ledger-continuity", True)


def check_ledger_continuity_across_reconfig(
        per_epoch: Sequence[Any], committees: Sequence[Any],
        ledger_digest: str) -> InvariantVerdict:
    """Reconfiguration never tears the ledger or the committee trail.

    Strengthens :func:`check_ledger_continuity` for runs under a membership
    schedule: on top of the gap-free digest chain, the per-epoch committee
    trail must itself be continuous -- one :class:`CommitteeRecord` per
    completed epoch in epoch order, every committee at least ``3f + 1 = 4``
    strong, and each epoch's committee derivable from its predecessor's by
    exactly the net changes the record declares (members =
    previous - departed - crashed + joined, with no overlap between the
    three delta sets).  Together these prove that handing the stream from
    one committee to the next neither lost an epoch nor smuggled in an
    unaccounted membership change.
    """
    base = check_ledger_continuity(per_epoch, ledger_digest)
    if not base.ok:
        return InvariantVerdict("ledger-continuity-across-reconfig",
                                False, base.detail)
    name = "ledger-continuity-across-reconfig"
    if not committees:
        return InvariantVerdict(
            name, False, "no committee records (membership schedule inactive)")
    if len(committees) < len(per_epoch):
        return InvariantVerdict(
            name, False,
            f"{len(per_epoch)} epochs completed but only {len(committees)} "
            f"committee records")
    previous = None
    for position, record in enumerate(committees):
        if record.epoch != position:
            return InvariantVerdict(
                name, False,
                f"committee trail has a gap: position {position} holds epoch "
                f"{record.epoch}")
        if len(record.members) < 4:
            return InvariantVerdict(
                name, False,
                f"epoch {record.epoch} ran with {len(record.members)} members, "
                f"below the quorum floor (4 = 3f+1 with f=1)")
        if len(set(record.members)) != len(record.members):
            return InvariantVerdict(
                name, False, f"epoch {record.epoch} committee has duplicates")
        deltas = set(record.joined) | set(record.departed) | set(record.crashed)
        if len(deltas) != (len(record.joined) + len(record.departed)
                           + len(record.crashed)):
            return InvariantVerdict(
                name, False,
                f"epoch {record.epoch} lists a node in more than one of "
                f"joined/departed/crashed")
        if previous is not None:
            expected = ((set(previous.members) - set(record.departed)
                         - set(record.crashed)) | set(record.joined))
            if set(record.members) != expected:
                return InvariantVerdict(
                    name, False,
                    f"epoch {record.epoch} committee {sorted(record.members)} "
                    f"is not the declared transition from epoch "
                    f"{previous.epoch} (expected {sorted(expected)})")
        previous = record
    return InvariantVerdict(name, True)


#: how many p50 epoch latencies a reconfigured epoch may take before
#: bounded-churn liveness is violated (key re-deal + transport rebind are
#: boundary work, so a reconfigured epoch should stay within a small
#: constant factor of the steady-state latency)
CHURN_EPOCH_BOUND = 5


def check_liveness_under_bounded_churn(
        per_epoch: Sequence[Any], committees: Sequence[Any], decided: bool,
        epochs_target: int,
        bound_factor: int = CHURN_EPOCH_BOUND) -> InvariantVerdict:
    """The stream stays live while churn stays within the fault budget.

    Three properties: every boundary removed at most ``f`` members of the
    committee it dismantled (the schedule admission rule's promise, checked
    here from the recorded trail); the stream decided all ``epochs_target``
    epochs; and no reconfigured epoch took longer than ``bound_factor``
    baseline (p50) epoch latencies -- i.e. rebuilding keys and transports at
    a boundary delays the next decision by a bounded amount instead of
    stalling the pipeline.
    """
    name = "liveness-under-bounded-churn"
    if not committees:
        return InvariantVerdict(
            name, False, "no committee records (membership schedule inactive)")
    previous = None
    for record in committees:
        if previous is not None:
            removed = len(record.departed) + len(record.crashed)
            budget = (len(previous.members) - 1) // 3
            if removed > budget:
                return InvariantVerdict(
                    name, False,
                    f"boundary into epoch {record.epoch} removed {removed} "
                    f"members from a committee of {len(previous.members)} "
                    f"(fault budget f={budget})")
        previous = record
    if not decided or len(per_epoch) < epochs_target:
        return InvariantVerdict(
            name, False,
            f"stream decided only {len(per_epoch)}/{epochs_target} epochs "
            f"under churn")
    reconfigured = {record.epoch for record in committees
                    if record.reconfigured}
    if reconfigured:
        baseline = percentile([record.latency_s for record in per_epoch], 0.50)
        allowance = bound_factor * baseline
        for record in per_epoch:
            if record.epoch in reconfigured and record.latency_s > allowance:
                return InvariantVerdict(
                    name, False,
                    f"reconfigured epoch {record.epoch} took "
                    f"{record.latency_s:.1f}s (allowed {allowance:.1f}s = "
                    f"{bound_factor} x p50 {baseline:.1f}s)")
    return InvariantVerdict(name, True)


#: how many baseline (p50) epoch latencies after a heal the stream gets to
#: produce its first post-heal epoch before recovery liveness is violated
RECOVERY_EPOCH_BOUND = 3


def heal_times(phases: Sequence[Any]) -> tuple[float, ...]:
    """When a stream's scenario pack heals: the ``start_s`` of every
    :class:`~repro.testbed.metrics.PhaseRecord` in ``phases`` that is not
    degraded and follows one that is."""
    return tuple(phase.start_s for previous, phase in zip(phases, phases[1:])
                 if previous.degraded and not phase.degraded)


def check_scenario_recovery(per_epoch: Sequence[Any],
                            heal_times: Sequence[float],
                            bound_epochs: int = RECOVERY_EPOCH_BOUND) -> InvariantVerdict:
    """Liveness is regained within bounded epochs after every phase heals.

    For each ``heal_times`` entry ``T`` (the start of a non-degraded phase
    that follows a degraded one), some completed epoch must *start* at or
    after ``T``, and the first such epoch must start within ``bound_epochs``
    baseline epoch latencies of ``T`` -- i.e. whatever epoch the degraded
    phase left stalled in flight completes promptly once conditions heal,
    instead of the stream limping indefinitely.  The baseline latency is the
    p50 over all completed epochs (degraded epochs only inflate it, making
    the bound conservative).  Vacuously true for packs with no heal
    boundary.
    """
    if not heal_times:
        return InvariantVerdict("scenario-recovery", True)
    if not per_epoch:
        return InvariantVerdict("scenario-recovery", False,
                                "no epoch completed at all")
    baseline = percentile([record.latency_s for record in per_epoch], 0.50)
    allowance = bound_epochs * baseline
    for heal_s in heal_times:
        after = [record for record in per_epoch if record.start_s >= heal_s]
        if not after:
            return InvariantVerdict(
                "scenario-recovery", False,
                f"no epoch started after the phase healing at {heal_s}s")
        first = min(after, key=lambda record: record.start_s)
        if first.start_s - heal_s > allowance:
            return InvariantVerdict(
                "scenario-recovery", False,
                f"first post-heal epoch {first.epoch} started "
                f"{first.start_s - heal_s:.1f}s after the {heal_s}s heal "
                f"(allowed {allowance:.1f}s = {bound_epochs} x p50 "
                f"{baseline:.1f}s)")
    return InvariantVerdict("scenario-recovery", True)


def check_ingress_conservation(classes: Sequence[Any]) -> InvariantVerdict:
    """Every ingress class's dispositions conserve its offered transactions.

    ``classes`` is a streaming run's
    :class:`~repro.testbed.metrics.ClassRecord` list.  Per class: every
    offered transaction landed in exactly one disposition bucket
    (``offered == admitted + shed + deferred_pending + duplicates``) and
    nothing was committed that was never admitted
    (``committed <= admitted``).  Failing either means the admission gate
    dropped or double-counted client traffic silently -- exactly what the
    shed/defer counters exist to rule out.
    """
    name = "ingress-conservation"
    if not classes:
        return InvariantVerdict(name, False,
                                "no class records (ingress spec inactive)")
    for record in classes:
        accounted = (record.admitted + record.shed
                     + record.deferred_pending + record.duplicates)
        if accounted != record.offered:
            return InvariantVerdict(
                name, False,
                f"class {record.name!r}: offered {record.offered} != "
                f"admitted {record.admitted} + shed {record.shed} + "
                f"deferred {record.deferred_pending} + duplicates "
                f"{record.duplicates} (= {accounted})")
        if record.committed > record.admitted:
            return InvariantVerdict(
                name, False,
                f"class {record.name!r}: committed {record.committed} "
                f"exceeds admitted {record.admitted}")
    return InvariantVerdict(name, True)


def check_all(observer: RunObserver, result: Any, timeout_s: float,
              expect_decision: bool = True,
              affected_domains: Optional[set[Any]] = None
              ) -> list[InvariantVerdict]:
    """Judge one testbed run: the one place that picks a run's gates.

    Safety (agreement, total order, validity) is checked unconditionally --
    it must hold even when the fault model denies liveness (the checks pass
    vacuously over an empty decision set).  Then each stream layer the
    ``result`` carries adds its gates: a committee trail (membership
    schedule) the two reconfiguration gates, class records (ingress) the
    conservation gate, and phase records (a scenario pack) ledger
    continuity plus recovery after each of the phases' heal times.
    """
    verdicts = [
        check_liveness(observer, result.decided, expect_decision, timeout_s,
                       affected_domains=affected_domains),
        check_agreement(observer),
        check_total_order(observer),
        check_validity(observer),
    ]
    if getattr(result, "committees", ()):
        verdicts.append(check_ledger_continuity_across_reconfig(
            result.per_epoch, result.committees, result.ledger_digest))
        verdicts.append(check_liveness_under_bounded_churn(
            result.per_epoch, result.committees, result.decided,
            result.epochs_target))
    if getattr(result, "classes", ()):
        verdicts.append(check_ingress_conservation(result.classes))
    if getattr(result, "phases", ()):
        verdicts.append(check_ledger_continuity(result.per_epoch,
                                                result.ledger_digest))
        verdicts.append(check_scenario_recovery(result.per_epoch,
                                                heal_times(result.phases)))
    return verdicts
