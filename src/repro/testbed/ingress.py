"""Client-facing ingress: transaction classes, priority mempool, admission.

Every stream of the streaming subsystem (:mod:`repro.testbed.streaming`)
feeds its nodes through this layer.  A plain stream runs the degenerate
:meth:`IngressSpec.fifo_equivalent` spec -- one undifferentiated open-loop
arrival stream per node into a pool that serves FIFO order; an ingress
stream runs a production-shaped spec:

* **Transaction classes** (:class:`TxClassSpec` / :class:`IngressSpec`) --
  named client populations with an arrival-mix weight, a priority band, a
  fee band and a size distribution.  Millions of simulated clients cost
  O(gateways): each gateway (node) carries one *aggregated* arrival process
  (:class:`ClassedArrivals`), the superposition of its clients' Poisson
  streams, with per-arrival class/fee/size marks drawn from dedicated child
  RNGs -- never per-client objects, never the simulator RNG.
* **Priority mempool** (:class:`PriorityMempool`) -- fee ordering (highest
  fee first) *within* a class, deficit-weighted round-robin *across*
  classes, with the FIFO pool's dedup and capacity semantics preserved.  A
  single-class spec with a uniform fee reduces exactly to FIFO behavior,
  so a plain stream's pool behaves as the FIFO reference
  :class:`~repro.testbed.streaming.Mempool` does (the differential tier in
  ``tests/testbed/test_ingress.py`` replays that pool op for op).
* **Admission control + backpressure** (:class:`AdmissionPolicy` /
  :class:`IngressGateway`) -- a queue-depth gate in front of each
  gateway's pool that sheds or defers low-priority classes while the
  backlog signal is tripped, with per-class disposition counters that
  conserve transactions::

      offered == admitted + shed + deferred_pending + duplicates

  (checked by ``repro.testbed.invariants.check_ingress_conservation``).

Seeded-RNG stream discipline
----------------------------

Arrival *gaps* draw from the child RNG keyed ``(seed, "arrival",
node_id)``; class, fee and size *marks* draw from a separate ``(seed,
"ingress", node_id)`` child RNG, and only when the spec leaves them free
(one class -> no class draw; ``fee_min == fee_max`` -> no fee draw; no
jitter -> no size draw).  A degenerate spec
(:meth:`IngressSpec.fifo_equivalent`) therefore consumes the gap stream
alone (its arrivals are pinned by digest in
``tests/testbed/test_ingress.py``), and the whole layer stays pace
independent: the k-th arrival of a gateway has identical time, bytes,
class and fee no matter how fast consensus runs.
"""

from __future__ import annotations

import heapq
import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.testbed.workload import (
    ArrivalSpec,
    TransactionWorkload,
    WorkloadSpec,
)

_FLAVORS = ("uniform", "task-allocation", "telemetry")


@dataclass(frozen=True)
class TxClassSpec:
    """One named transaction class (a client population).

    Units: ``weight`` is the class's share of the *arrival mix* (relative to
    the other classes' weights); ``drr_weight`` is its share of mempool
    *service* under deficit-weighted round-robin (0 = follow ``weight``) --
    the two are separate so an operator can over-provision a premium class's
    service share relative to its traffic share; ``priority`` is the
    admission band (classes with ``priority >= AdmissionPolicy.
    protect_priority`` bypass the gate); fees are drawn uniformly from
    ``[fee_min, fee_max]`` (equal bounds -> the constant fee, no RNG draw);
    ``transaction_bytes`` is the class's base size in bytes (>= 8) and
    ``size_jitter`` widens it to a uniform integer draw from
    ``[transaction_bytes, transaction_bytes + size_jitter]``.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    fee_min: float = 1.0
    fee_max: float = 1.0
    transaction_bytes: int = 48
    size_jitter: int = 0
    drr_weight: float = 0.0
    flavor: str = "uniform"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be a non-empty class label")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if self.fee_min < 0:
            raise ValueError(f"fee_min must be >= 0, got {self.fee_min}")
        if self.fee_max < self.fee_min:
            raise ValueError(
                f"fee_max must be >= fee_min ({self.fee_min}), "
                f"got {self.fee_max}")
        if self.transaction_bytes < 8:
            raise ValueError(
                f"transaction_bytes must be >= 8, got {self.transaction_bytes}")
        if self.size_jitter < 0:
            raise ValueError(
                f"size_jitter must be >= 0, got {self.size_jitter}")
        if self.drr_weight < 0:
            raise ValueError(
                f"drr_weight must be >= 0 (0 = follow weight), "
                f"got {self.drr_weight}")
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown workload flavor {self.flavor!r}")

    @property
    def service_weight(self) -> float:
        """The DRR service share (``drr_weight`` or, if 0, ``weight``)."""
        return self.drr_weight if self.drr_weight > 0 else self.weight


@dataclass(frozen=True)
class AdmissionPolicy:
    """The per-gateway admission gate.

    ``mode`` selects what happens to an *unprotected* transaction (class
    ``priority < protect_priority``) while the gate's pressure signal is
    tripped: ``none`` admits everything (no gate), ``shed`` drops it,
    ``defer`` parks it in a bounded FIFO side-queue that is re-offered to
    the pool at every checkpoint once pressure clears (overflow sheds).
    Pressure trips when the pool backlog reaches ``backlog_threshold``
    (0 = never; only mode ``none`` may leave it at 0).
    """

    mode: str = "none"  # none | shed | defer
    backlog_threshold: int = 0
    protect_priority: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("none", "shed", "defer"):
            raise ValueError(f"unknown admission mode {self.mode!r}; "
                             f"known: none, shed, defer")
        if self.backlog_threshold < 0:
            raise ValueError(
                f"backlog_threshold must be >= 0 (0 = no backlog signal), "
                f"got {self.backlog_threshold}")
        if self.protect_priority < 0:
            raise ValueError(
                f"protect_priority must be >= 0, got {self.protect_priority}")
        if self.mode != "none" and self.backlog_threshold == 0:
            raise ValueError(
                f"admission mode {self.mode!r} needs a pressure signal "
                f"(backlog_threshold > 0)")


@dataclass(frozen=True)
class IngressSpec:
    """The full ingress configuration: transaction classes + admission gate."""

    classes: tuple = (TxClassSpec(name="default"),)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("classes must name at least one TxClassSpec")
        names = [spec.name for spec in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"class names must be unique, got {names}")

    @classmethod
    def fifo_equivalent(cls, arrival: ArrivalSpec) -> "IngressSpec":
        """The degenerate spec a plain (no-ingress) stream runs.

        One class matching ``arrival``'s size/flavor, a constant fee and no
        admission gate: the arrival stream draws from the gap RNG and
        nothing else, and the priority mempool reduces to FIFO -- the
        configuration the differential test tier pins against
        :class:`~repro.testbed.streaming.Mempool`.
        """
        return cls(classes=(TxClassSpec(
            name="default", transaction_bytes=arrival.transaction_bytes,
            flavor=arrival.flavor),))


# ---------------------------------------------------------------------------
# aggregated per-gateway arrivals
# ---------------------------------------------------------------------------

class ClassedArrivals:
    """Aggregated class-marked open-loop arrival streams, one per gateway.

    The superposition of a gateway's client streams is itself Poisson, so a
    population of millions of clients collapses to one arrival process per
    gateway: exponential gaps of mean ``num_nodes / rate_tps`` virtual
    seconds from a child RNG keyed ``(seed, "arrival", node_id)``, plus
    categorical class marks and uniform fee/size marks from a separate
    ``(seed, "ingress", node_id)`` child RNG.  Mark draws are elided
    whenever the spec pins them (single class / constant fee / no jitter),
    so a degenerate spec consumes *only* the gap stream -- the plain
    open-loop process.  Pace independent: never reads simulator state, so
    the k-th arrival of a gateway is the same at any pipeline depth and in
    any interleaving of gateways -- the property the depth-0-vs-depth-1
    bit-identity of streaming runs rests on.
    """

    def __init__(self, ingress: IngressSpec, arrival: ArrivalSpec,
                 num_nodes: int, seed: int = 0) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.ingress = ingress
        self.arrival = arrival
        self.num_nodes = num_nodes
        self.seed = seed
        self.per_node_rate = arrival.rate_tps / num_nodes
        self._gap_rngs, self._mark_rngs = (
            [random.Random(zlib.crc32(repr((seed, stream, node_id)).encode()))
             for node_id in range(num_nodes)]
            for stream in ("arrival", "ingress"))
        total = sum(spec.weight for spec in ingress.classes)
        edge = 0.0
        self._mix_edges = []
        for spec in ingress.classes:
            edge += spec.weight / total
            self._mix_edges.append(edge)
        self._workloads: dict = {}
        self._clock = [0.0] * num_nodes
        self._index = [0] * num_nodes

    def _workload(self, spec: TxClassSpec, size: int) -> TransactionWorkload:
        key = (spec.flavor, size)
        workload = self._workloads.get(key)
        if workload is None:
            workload = TransactionWorkload(
                WorkloadSpec(batch_size=1, transaction_bytes=size,
                             flavor=spec.flavor), seed=self.seed)
            self._workloads[key] = workload
        return workload

    def next_arrival(self, node_id: int) -> tuple:
        """Advance gateway ``node_id``'s stream by one arrival.

        Returns ``(arrival_time_s, transaction_bytes, class_index, fee)``;
        times are absolute virtual seconds, strictly increasing per gateway,
        and a pure function of ``(seed, node_id, arrival index)``.
        """
        classes = self.ingress.classes
        self._clock[node_id] += \
            self._gap_rngs[node_id].expovariate(self.per_node_rate)
        marks = self._mark_rngs[node_id]
        if len(classes) > 1:
            pick = marks.random()
            class_index = 0
            while pick >= self._mix_edges[class_index] \
                    and class_index < len(classes) - 1:
                class_index += 1
        else:
            class_index = 0
        spec = classes[class_index]
        fee = marks.uniform(spec.fee_min, spec.fee_max) \
            if spec.fee_max > spec.fee_min else spec.fee_min
        size = spec.transaction_bytes
        if spec.size_jitter > 0:
            size += marks.randrange(spec.size_jitter + 1)
        transaction = self._workload(spec, size).stream_transaction(
            node_id, self._index[node_id])
        self._index[node_id] += 1
        return self._clock[node_id], transaction, class_index, fee

    def generated(self, node_id: int) -> int:
        """How many arrivals gateway ``node_id``'s stream has produced."""
        return self._index[node_id]


# ---------------------------------------------------------------------------
# priority mempool
# ---------------------------------------------------------------------------

class PriorityMempool:
    """Class-aware bounded mempool: fee order within a class, DRR across.

    Interface-compatible with the FIFO reference
    :class:`~repro.testbed.streaming.Mempool` (``admit`` / ``take`` /
    ``commit`` / ``requeue`` / ``drain`` / ``backlog`` and the four
    counters); every stream pools here.  Within a class, :meth:`take` serves
    the highest fee first (ties by arrival order); across classes it runs
    deficit-weighted round-robin with per-class quanta proportional to
    ``TxClassSpec.service_weight`` (deficits persist across takes, and an
    emptied class forfeits its residual deficit, per classic DRR).  Dedup
    spans pool *and* in-flight; ``capacity`` bounds the pooled backlog.

    With a single class and a uniform fee the serve order is exactly
    arrival order and every counter transition matches the FIFO pool --
    the reduction the differential test tier pins.
    """

    def __init__(self, ingress: IngressSpec, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.ingress = ingress
        self.capacity = capacity
        num_classes = len(ingress.classes)
        #: pooled tx -> (class_index, fee, seq)
        self._meta: dict = {}
        self._in_flight: dict = {}
        self._heaps: list = [[] for _ in range(num_classes)]
        self._pooled = [0] * num_classes
        self._seq = 0
        weights = [spec.service_weight for spec in ingress.classes]
        floor = min(weights)
        self._quantum = [weight / floor for weight in weights]
        self._deficit = [0.0] * num_classes
        self._cursor = 0
        self.admitted = 0
        self.dropped_capacity = 0
        self.dropped_duplicate = 0
        self.committed = 0

    @property
    def backlog(self) -> int:
        """Transactions waiting to be proposed (all classes)."""
        return len(self._meta)

    def contains(self, transaction: bytes) -> bool:
        """Whether ``transaction`` is pooled or in flight (the dedup set)."""
        return transaction in self._meta or transaction in self._in_flight

    def admit(self, transaction: bytes, class_index: int = 0,
              fee: Optional[float] = None) -> bool:
        """Admit one arriving transaction (False = dropped, with the reason
        counted in ``dropped_duplicate`` / ``dropped_capacity``)."""
        if transaction in self._meta or transaction in self._in_flight:
            self.dropped_duplicate += 1
            return False
        if len(self._meta) >= self.capacity:
            self.dropped_capacity += 1
            return False
        if fee is None:
            fee = self.ingress.classes[class_index].fee_min
        entry = (class_index, fee, self._seq)
        self._seq += 1
        self._meta[transaction] = entry
        self._pooled[class_index] += 1
        heapq.heappush(self._heaps[class_index],
                       (-fee, entry[2], transaction))
        self.admitted += 1
        return True

    def _pop_class(self, class_index: int):
        """Highest-fee (then oldest) live transaction of one class.

        Heap entries are lazily invalidated: commit-from-pool and drain
        leave stale entries behind, recognized here by a ``seq`` mismatch
        against the live ``_meta`` record.
        """
        heap = self._heaps[class_index]
        while heap:
            _neg_fee, seq, transaction = heapq.heappop(heap)
            entry = self._meta.get(transaction)
            if entry is not None and entry[2] == seq:
                del self._meta[transaction]
                self._pooled[class_index] -= 1
                self._in_flight[transaction] = entry
                return transaction
        return None

    def take(self, count: int) -> list:
        """Drain up to ``count`` transactions by fee-within-class, DRR across.

        Taken transactions move to the in-flight set (still deduped
        against, no longer counted in ``backlog``) until :meth:`commit`
        sees them or :meth:`requeue` returns them.
        """
        batch: list = []
        if count <= 0:
            return batch
        num_classes = len(self._quantum)
        while len(batch) < count and self._meta:
            for _ in range(num_classes):
                class_index = self._cursor
                self._cursor = (self._cursor + 1) % num_classes
                if self._pooled[class_index] == 0:
                    # classic DRR: an emptied queue forfeits its deficit,
                    # so an idle class cannot bank service for later bursts
                    self._deficit[class_index] = 0.0
                    continue
                self._deficit[class_index] += self._quantum[class_index]
                while self._deficit[class_index] >= 1.0 \
                        and self._pooled[class_index] > 0 \
                        and len(batch) < count:
                    taken = self._pop_class(class_index)
                    if taken is None:
                        break
                    batch.append(taken)
                    self._deficit[class_index] -= 1.0
                if len(batch) >= count:
                    break
        return batch

    def commit(self, transactions) -> None:
        """Forget committed transactions (from in-flight or, defensively,
        from the pool when another node proposed the same bytes first)."""
        for transaction in transactions:
            if transaction in self._in_flight:
                del self._in_flight[transaction]
                self.committed += 1
            elif transaction in self._meta:
                entry = self._meta.pop(transaction)
                self._pooled[entry[0]] -= 1
                self.committed += 1

    def requeue(self, transactions) -> None:
        """Return in-flight transactions to the pool at their original rank.

        Requeued transactions keep their admission ``seq``, so within their
        class they sort ahead of every later arrival at equal fee --
        the priority-pool analogue of the FIFO pool's front placement.
        """
        for transaction in transactions:
            entry = self._in_flight.pop(transaction, None)
            if entry is None:
                continue
            self._meta[transaction] = entry
            self._pooled[entry[0]] += 1
            heapq.heappush(self._heaps[entry[0]],
                           (-entry[1], entry[2], transaction))

    def drain(self) -> list:
        """Hand over every pooled transaction (arrival order) and forget it.

        Mirrors the FIFO pool's drain contract (committee departure):
        in-flight state is cleared too, and each entry is the argument
        tuple of a survivor's :meth:`admit` -- ``(transaction, class_index,
        fee)``, so the marks travel with the transaction.  Entries go in
        admission ``seq`` order, so a requeued transaction keeps its rank
        ahead of later arrivals, as at the front of the FIFO pool.
        """
        drained = [(transaction, class_index, fee)
                   for transaction, (class_index, fee, _seq)
                   in sorted(self._meta.items(), key=lambda item: item[1][2])]
        self._meta.clear()
        self._in_flight.clear()
        self._heaps = [[] for _ in self._quantum]
        self._pooled = [0] * len(self._quantum)
        return drained


# ---------------------------------------------------------------------------
# admission gateway
# ---------------------------------------------------------------------------

class IngressGateway:
    """One gateway's admission gate in front of its :class:`PriorityMempool`.

    :meth:`submit` routes each arriving transaction to exactly one
    disposition -- ``admitted`` (now pooled), ``shed`` (dropped by the
    gate, by defer-queue overflow, or by pool capacity), ``deferred``
    (parked in the bounded side-queue) or ``duplicate`` -- and counts it
    per class, so at any instant every class conserves::

        offered == admitted + shed + deferred_pending + duplicates

    Protected classes (``priority >= policy.protect_priority``) bypass the
    pressure gate entirely; their only shed path is a full pool.  The
    ``meta`` sink maps every pooled transaction to ``(class_index,
    submit_s)`` -- the *original* arrival time even for deferred-then-
    released transactions -- which is what client-observed submit->commit
    latency is measured from.
    """

    def __init__(self, ingress: IngressSpec, capacity: int,
                 meta: Optional[dict] = None) -> None:
        self.ingress = ingress
        self.policy = ingress.admission
        self.capacity = capacity
        self.pool = PriorityMempool(ingress, capacity)
        self.meta = meta if meta is not None else {}
        num_classes = len(ingress.classes)
        self.offered = [0] * num_classes
        self.admitted = [0] * num_classes
        self.shed = [0] * num_classes
        self.duplicates = [0] * num_classes
        self.released = 0
        self._deferred: deque = deque()
        self._deferred_count = [0] * num_classes

    # ------------------------------------------------------------- pressure
    def pressure(self) -> bool:
        """Whether the backpressure signal is tripped (pool backlog at
        threshold)."""
        threshold = self.policy.backlog_threshold
        return threshold > 0 and self.pool.backlog >= threshold

    # ------------------------------------------------------------ admission
    def _pool_admit(self, transaction: bytes, class_index: int, fee: float,
                    submit_s: float) -> str:
        if self.pool.contains(transaction):
            self.pool.admit(transaction, class_index, fee)  # counts the dup
            self.duplicates[class_index] += 1
            return "duplicate"
        if not self.pool.admit(transaction, class_index, fee):
            # pool at capacity: the ingress-level disposition is a shed
            self.shed[class_index] += 1
            return "shed"
        self.admitted[class_index] += 1
        self.meta[transaction] = (class_index, submit_s)
        return "admitted"

    def submit(self, now: float, transaction: bytes, class_index: int,
               fee: float) -> str:
        """Offer one client transaction at virtual time ``now``.

        Returns the disposition: ``admitted`` / ``shed`` / ``deferred`` /
        ``duplicate``.
        """
        self.offered[class_index] += 1
        policy = self.policy
        protected = self.ingress.classes[class_index].priority \
            >= policy.protect_priority
        if policy.mode != "none" and not protected and self.pressure():
            if policy.mode == "shed" \
                    or len(self._deferred) >= self.capacity:
                self.shed[class_index] += 1
                return "shed"
            self._deferred.append((transaction, class_index, fee, now))
            self._deferred_count[class_index] += 1
            return "deferred"
        return self._pool_admit(transaction, class_index, fee, now)

    def release_deferred(self) -> int:
        """Re-offer parked transactions to the pool once pressure clears.

        Called at every streaming checkpoint (after commits and requeues
        settle the backlog).  Releases in FIFO deferral order, stopping as
        soon as pressure re-trips or the pool fills; released transactions
        keep their original submit time, so deferral delay is part of their
        client-observed latency.  Returns how many were released.
        """
        released = 0
        while self._deferred and not self.pressure() \
                and self.pool.backlog < self.capacity:
            transaction, class_index, fee, submit_s = self._deferred.popleft()
            self._deferred_count[class_index] -= 1
            if self._pool_admit(transaction, class_index, fee,
                                submit_s) == "admitted":
                released += 1
        self.released += released
        return released

    def deferred_pending(self, class_index: int) -> int:
        """Transactions of one class currently parked in the defer queue."""
        return self._deferred_count[class_index]


# ---------------------------------------------------------------------------
# canned profiles (campaign cells, benchmarks, docs)
# ---------------------------------------------------------------------------

def _three_classes() -> tuple:
    # Service (DRR) shares deliberately exceed arrival shares for the paid
    # bands: under overload the premium classes drain faster than they
    # arrive while best-effort absorbs the backlog (and the shedding).
    return (
        TxClassSpec(name="high", weight=0.2, priority=2,
                    fee_min=8.0, fee_max=10.0, transaction_bytes=48,
                    drr_weight=4.0),
        TxClassSpec(name="standard", weight=0.5, priority=1,
                    fee_min=2.0, fee_max=6.0, transaction_bytes=48,
                    size_jitter=16, drr_weight=2.0),
        TxClassSpec(name="best-effort", weight=0.3, priority=0,
                    fee_min=0.1, fee_max=1.0, transaction_bytes=48,
                    drr_weight=1.0),
    )


#: Named ingress profiles swept by the campaign and the SLO experiments.
#: ``three-class-{open,shed,defer}`` share one class mix (20% high-priority,
#: 50% standard, 30% best-effort; DRR service shares 4:2:1) and differ only
#: in the admission gate; ``single-class-fifo`` is the degenerate profile
#: whose behavior reduces to the plain FIFO pool.
INGRESS_PROFILES: dict = {
    "three-class-open": IngressSpec(
        classes=_three_classes(),
        admission=AdmissionPolicy(mode="none")),
    "three-class-shed": IngressSpec(
        classes=_three_classes(),
        admission=AdmissionPolicy(mode="shed", backlog_threshold=24,
                                  protect_priority=2)),
    "three-class-defer": IngressSpec(
        classes=_three_classes(),
        admission=AdmissionPolicy(mode="defer", backlog_threshold=24,
                                  protect_priority=2)),
    "single-class-fifo": IngressSpec(),
}


def ingress_profile(name: str) -> IngressSpec:
    """Look up a canned profile by name (ValueError names the known set)."""
    try:
        return INGRESS_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown ingress profile {name!r}; "
            f"known: {sorted(INGRESS_PROFILES)}") from None
