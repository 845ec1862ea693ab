"""Differential/property tier for the client-facing ingress layer.

Four contracts pinned here:

* **FIFO reduction (differential)** -- a degenerate ingress spec (single
  class, uniform fee, no gate) is *bit-identical* to the no-ingress default
  path: per-epoch digests, ledger digest and the full ``sim_events`` trace
  match across protocols and seeds, and a single-class
  :class:`PriorityMempool` replays the FIFO :class:`Mempool` op-for-op under
  randomized admit/take/commit/requeue sequences with identical counters.
* **Ordering properties** -- fee order within a class (ties by arrival),
  deficit-weighted round-robin shares across classes proportional to
  ``service_weight``, requeue restoring a transaction's original rank.
* **Conservation** -- every gateway class satisfies
  ``offered == admitted + shed + deferred_pending + duplicates`` under
  randomized class grids, admission policies and op interleavings
  (the invariant ``check_ingress_conservation`` gates campaign cells on).
* **Seed determinism** -- aggregated class-marked arrivals are a pure
  function of ``(seed, node_id, arrival index)``: pace independent, never
  drawing the simulator RNG, byte-identical across replays.
"""

import random
from dataclasses import asdict, replace

import pytest

from repro.testbed.campaign import QUICK_CELLS, CampaignCell, \
    TopologySpec, run_cell
from repro.testbed.ingress import (
    INGRESS_PROFILES,
    AdmissionPolicy,
    ClassedArrivals,
    IngressGateway,
    IngressSpec,
    PriorityMempool,
    TxClassSpec,
    ingress_profile,
)
from repro.testbed.invariants import (
    RunObserver,
    check_all,
    check_ingress_conservation,
    check_ledger_continuity_across_reconfig,
    check_liveness_under_bounded_churn,
)
from repro.testbed.membership import MembershipSchedule
from repro.testbed.metrics import ClassRecord
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import (
    Mempool,
    StreamingRun,
    StreamingSpec,
    run_streaming_consensus,
)
from repro.testbed.workload import ArrivalSpec, ChurnSpec, OpenLoopArrivals
from tests.helpers import epoch_digests

FAST = ArrivalSpec(rate_tps=4.0, transaction_bytes=32, max_mempool=512)
THREE_OPEN = ingress_profile("three-class-open")


def small_spec(**overrides) -> StreamingSpec:
    defaults = dict(epochs=3, batch_size=3, arrival=FAST, warmup=12)
    defaults.update(overrides)
    return StreamingSpec(**defaults)


def overload_spec() -> StreamingSpec:
    """Offered load well past the scale profile's saturation point."""
    return StreamingSpec(
        epochs=8, batch_size=4,
        arrival=ArrivalSpec(rate_tps=120.0, transaction_bytes=48,
                            max_mempool=256))


def solo_spec(fee_max: float = 10.0) -> IngressSpec:
    """One ungated class with a free fee band (explicit-fee admits)."""
    return IngressSpec(classes=(
        TxClassSpec(name="solo", fee_min=0.0, fee_max=fee_max),))


class TestSpecValidation:
    def test_tx_class_spec_rejects_bad_fields(self):
        for bad in (dict(name=""), dict(weight=0.0), dict(weight=-1.0),
                    dict(priority=-1), dict(fee_min=-0.5),
                    dict(fee_min=2.0, fee_max=1.0), dict(transaction_bytes=4),
                    dict(size_jitter=-1), dict(drr_weight=-1.0),
                    dict(flavor="nope")):
            with pytest.raises(ValueError):
                TxClassSpec(**{**dict(name="c"), **bad})

    def test_service_weight_falls_back_to_mix_weight(self):
        assert TxClassSpec(name="a", weight=0.3).service_weight == 0.3
        assert TxClassSpec(name="a", weight=0.3,
                           drr_weight=4.0).service_weight == 4.0

    def test_admission_policy_rejects_bad_fields(self):
        for bad in (dict(mode="drop"), dict(backlog_threshold=-1),
                    dict(protect_priority=-1),
                    # a gated mode needs its pressure signal
                    dict(mode="shed"), dict(mode="defer")):
            with pytest.raises(ValueError):
                AdmissionPolicy(**bad)

    def test_ingress_spec_needs_unique_nonempty_classes(self):
        with pytest.raises(ValueError):
            IngressSpec(classes=())
        with pytest.raises(ValueError):
            IngressSpec(classes=(TxClassSpec(name="a"),
                                 TxClassSpec(name="a", weight=2.0)))

    def test_profile_lookup_is_loud(self):
        assert set(INGRESS_PROFILES) == {
            "three-class-open", "three-class-shed", "three-class-defer",
            "single-class-fifo"}
        with pytest.raises(ValueError):
            ingress_profile("four-class-open")


class TestClassedArrivals:
    def test_degenerate_spec_reproduces_plain_stream_exactly(self):
        """The anchor of the differential tier: a fifo-equivalent spec
        consumes only the gap RNG, so (time, bytes) pairs are byte-identical
        to OpenLoopArrivals on every gateway."""
        arrival = ArrivalSpec(rate_tps=6.0, transaction_bytes=40)
        plain = OpenLoopArrivals(arrival, num_nodes=3, seed=17)
        classed = ClassedArrivals(IngressSpec.fifo_equivalent(arrival),
                                  arrival, num_nodes=3, seed=17)
        for node in range(3):
            for _ in range(40):
                when, tx = plain.next_arrival(node)
                c_when, c_tx, class_index, fee = classed.next_arrival(node)
                assert (when, tx) == (c_when, c_tx)
                assert class_index == 0 and fee == 1.0

    def test_streams_are_pace_independent(self):
        arrival = ArrivalSpec(rate_tps=6.0, transaction_bytes=48)
        first = ClassedArrivals(THREE_OPEN, arrival, num_nodes=3, seed=5)
        second = ClassedArrivals(THREE_OPEN, arrival, num_nodes=3, seed=5)
        a = [first.next_arrival(0) for _ in range(6)]
        _ = [first.next_arrival(1) for _ in range(4)]
        _ = [second.next_arrival(1) for _ in range(4)]
        b = [second.next_arrival(0) for _ in range(6)]
        assert a == b

    def test_different_seeds_differ(self):
        arrival = ArrivalSpec(rate_tps=6.0, transaction_bytes=48)
        a = ClassedArrivals(THREE_OPEN, arrival, 2, seed=1)
        b = ClassedArrivals(THREE_OPEN, arrival, 2, seed=2)
        assert [a.next_arrival(0) for _ in range(5)] \
            != [b.next_arrival(0) for _ in range(5)]

    def test_marks_respect_spec_bands(self):
        """Class mix tracks the weights, fees stay in their band, jitter
        widens only the jittered class's sizes."""
        arrival = ArrivalSpec(rate_tps=50.0, transaction_bytes=48)
        arrivals = ClassedArrivals(THREE_OPEN, arrival, num_nodes=1, seed=3)
        counts = [0, 0, 0]
        for _ in range(1500):
            when, tx, class_index, fee = arrivals.next_arrival(0)
            counts[class_index] += 1
            spec = THREE_OPEN.classes[class_index]
            assert spec.fee_min <= fee <= spec.fee_max
            assert spec.transaction_bytes <= len(tx) \
                <= spec.transaction_bytes + spec.size_jitter
        assert arrivals.generated(0) == 1500
        shares = [count / 1500 for count in counts]
        for share, spec in zip(shares, THREE_OPEN.classes):
            assert abs(share - spec.weight) < 0.05

    def test_times_strictly_increase_and_txs_unique(self):
        arrival = ArrivalSpec(rate_tps=20.0, transaction_bytes=48)
        arrivals = ClassedArrivals(THREE_OPEN, arrival, 2, seed=9)
        times, txs = [], set()
        for _ in range(30):
            when, tx, _, _ = arrivals.next_arrival(0)
            times.append(when)
            txs.add(tx)
        assert times == sorted(times) and len(set(times)) == len(times)
        assert len(txs) == 30

    def test_num_nodes_validation(self):
        with pytest.raises(ValueError):
            ClassedArrivals(THREE_OPEN, FAST, num_nodes=0, seed=1)


class TestPriorityMempool:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PriorityMempool(IngressSpec(), capacity=0)

    def test_fee_order_within_class_ties_by_arrival(self):
        pool = PriorityMempool(solo_spec(), capacity=16)
        for tx, fee in ((b"a", 1.0), (b"b", 5.0), (b"c", 3.0), (b"d", 5.0)):
            assert pool.admit(tx, 0, fee)
        assert pool.take(4) == [b"b", b"d", b"c", b"a"]

    def test_drr_shares_track_service_weights(self):
        """Three saturated classes at DRR shares 4:2:1 split a 70-tx take
        exactly 40/20/10."""
        pool = PriorityMempool(THREE_OPEN, capacity=256)
        for index in range(70):
            for class_index in range(3):
                assert pool.admit(b"tx-%d-%d" % (class_index, index),
                                  class_index, 1.0)
        batch = pool.take(70)
        counts = [0, 0, 0]
        for tx in batch:
            counts[int(tx.split(b"-")[1])] += 1
        assert counts == [40, 20, 10]

    def test_drr_skips_emptied_classes(self):
        """An emptied class forfeits its deficit; its share flows to the
        backlogged classes instead of banking for later."""
        pool = PriorityMempool(THREE_OPEN, capacity=256)
        for index in range(30):
            assert pool.admit(b"std-%d" % index, 1, 1.0)
        assert pool.admit(b"high-0", 0, 9.0)
        batch = pool.take(20)
        assert b"high-0" in batch
        assert len(batch) == 20  # the standard class absorbs the slack

    def test_dedup_spans_pool_and_in_flight(self):
        pool = PriorityMempool(solo_spec(), capacity=8)
        assert pool.admit(b"a", 0, 2.0)
        assert not pool.admit(b"a", 0, 9.0)  # pooled
        assert pool.take(1) == [b"a"]
        assert not pool.admit(b"a", 0, 9.0)  # in flight
        assert pool.dropped_duplicate == 2
        pool.commit([b"a"])
        assert pool.admit(b"a", 0, 9.0)  # committed = forgotten

    def test_requeue_restores_original_rank(self):
        pool = PriorityMempool(solo_spec(), capacity=8)
        for tx, fee in ((b"a", 5.0), (b"b", 5.0), (b"c", 5.0)):
            pool.admit(tx, 0, fee)
        taken = pool.take(2)
        assert taken == [b"a", b"b"]
        pool.requeue(taken)
        # original seq beats the later arrival at equal fee
        assert pool.take(3) == [b"a", b"b", b"c"]

    def test_requeue_ignores_unknown_and_committed(self):
        pool = PriorityMempool(solo_spec(), capacity=8)
        pool.admit(b"a", 0, 1.0)
        pool.admit(b"b", 0, 1.0)
        pool.take(2)
        pool.commit([b"a"])
        pool.requeue([b"a", b"b", b"ghost"])
        assert pool.backlog == 1
        assert pool.take(2) == [b"b"]

    def test_drain_hands_over_arrival_order_and_clears(self):
        pool = PriorityMempool(THREE_OPEN, capacity=8)
        pool.admit(b"a", 2, 0.5)
        pool.admit(b"b", 0, 9.0)
        pool.admit(b"c", 1, 4.0)
        assert pool.drain() == [(b"a", 2, 0.5), (b"b", 0, 9.0), (b"c", 1, 4.0)]
        assert pool.backlog == 0
        assert pool.take(3) == []
        assert pool.admit(b"a", 0, 1.0)  # drained = forgotten

    def test_drained_entries_keep_class_and_fee_in_the_next_pool(self):
        """A departed gateway's backlog moves as ``admit(*entry)``: every
        transaction lands in the survivor's pool under its original class
        and fee, not as class 0 at ``fee_min``."""
        departed = PriorityMempool(THREE_OPEN, capacity=8)
        departed.admit(b"cheap", 1, 2.5)
        departed.admit(b"best", 2, 0.7)
        departed.admit(b"dear", 1, 5.5)
        survivor = PriorityMempool(THREE_OPEN, capacity=8)
        survivor.admit(b"own", 1, 4.0)
        for entry in departed.drain():
            assert survivor.admit(*entry)
        assert survivor._pooled == [0, 3, 1]
        # fee order within the class: the transferred 5.5 overtakes the
        # survivor's own 4.0, the transferred 2.5 queues behind it
        taken = survivor.take(4)
        assert [tx for tx in taken if tx != b"best"] \
            == [b"dear", b"own", b"cheap"]
        # the FIFO pool's entries are bare transactions for the same call
        fifo = Mempool(capacity=4)
        fifo.admit(b"x")
        assert fifo.drain() == [(b"x",)] and fifo.backlog == 0

    def test_per_class_counts(self):
        pool = PriorityMempool(THREE_OPEN, capacity=8)
        pool.admit(b"a", 0, 9.0)
        pool.admit(b"b", 2, 0.5)
        pool.admit(b"c", 2, 0.6)
        assert pool._pooled == [1, 0, 2]
        assert pool.backlog == 3

    def test_take_nonpositive_is_empty(self):
        pool = PriorityMempool(solo_spec(), capacity=4)
        pool.admit(b"a", 0, 1.0)
        assert pool.take(0) == [] and pool.take(-3) == []
        assert pool.backlog == 1

    def test_single_class_differential_vs_fifo_mempool(self):
        """The op-level reduction: a single-class uniform-fee priority pool
        replays the FIFO pool op-for-op -- same take batches, same backlog,
        same counters -- under randomized admit/take/commit/requeue."""
        rng = random.Random(2024)
        fifo = Mempool(capacity=12)
        prio = PriorityMempool(IngressSpec(), capacity=12)
        in_flight: list = []
        for _ in range(600):
            op = rng.random()
            if op < 0.55:
                tx = b"tx-%d" % rng.randrange(40)  # small space forces dups
                assert fifo.admit(tx) == prio.admit(tx)
            elif op < 0.75:
                count = rng.randrange(1, 6)
                batch = fifo.take(count)
                assert prio.take(count) == batch
                in_flight.extend(batch)
            elif in_flight:
                # requeue in take (= arrival) order, as the checkpoint
                # loop does; commit order is irrelevant to both pools
                done = [tx for tx in in_flight if rng.random() < 0.5]
                back = [tx for tx in in_flight if tx not in done]
                fifo.commit(done)
                prio.commit(done)
                fifo.requeue(back)
                prio.requeue(back)
                in_flight = []
            assert fifo.backlog == prio.backlog
        assert (fifo.admitted, fifo.dropped_capacity, fifo.dropped_duplicate,
                fifo.committed) \
            == (prio.admitted, prio.dropped_capacity, prio.dropped_duplicate,
                prio.committed)
        assert fifo.take(12) == prio.take(12)


class TestMempoolCapacityEdges:
    """Capacity-boundary regressions, pinned for both pool flavors."""

    @pytest.fixture(params=["fifo", "priority"])
    def make_pool(self, request):
        if request.param == "fifo":
            return Mempool
        return lambda capacity: PriorityMempool(IngressSpec(), capacity)

    def test_capacity_zero_rejected(self, make_pool):
        with pytest.raises(ValueError):
            make_pool(0)

    def test_capacity_one_full_cycle(self, make_pool):
        pool = make_pool(1)
        assert pool.admit(b"a")
        assert not pool.admit(b"b")  # full
        assert pool.take(1) == [b"a"]
        assert pool.admit(b"b")  # in-flight frees the slot
        assert not pool.admit(b"a")  # still deduped while in flight
        pool.commit([b"a"])
        assert not pool.admit(b"c")  # b still pools the only slot
        assert pool.take(1) == [b"b"]
        pool.commit([b"b"])
        assert pool.admit(b"a")  # committed bytes may recur
        assert (pool.admitted, pool.dropped_capacity,
                pool.dropped_duplicate, pool.committed) == (3, 2, 1, 2)

    def test_requeue_may_exceed_capacity(self, make_pool):
        """Requeue is a return, not an admission: the pooled backlog may
        transiently exceed capacity, and only new admits are dropped."""
        pool = make_pool(2)
        assert pool.admit(b"a") and pool.admit(b"b")
        taken = pool.take(2)
        assert pool.admit(b"c") and pool.admit(b"d")
        pool.requeue(taken)
        assert pool.backlog == 4 > pool.capacity
        assert not pool.admit(b"e")
        assert pool.dropped_capacity == 1
        assert pool.take(4) == [b"a", b"b", b"c", b"d"]

    def test_requeue_after_crash_collides_with_dedup(self, make_pool):
        """The crash-recovery seam: a requeued transaction re-entering via
        the client path is a duplicate, not a double admission."""
        pool = make_pool(4)
        pool.admit(b"a")
        pool.take(1)
        pool.requeue([b"a"])  # proposer crashed; batch returned
        assert not pool.admit(b"a")  # the client retries the same bytes
        assert pool.dropped_duplicate == 1
        assert pool.take(1) == [b"a"]
        assert pool.backlog == 0


class TestIngressGateway:
    SHED = IngressSpec(
        classes=ingress_profile("three-class-open").classes,
        admission=AdmissionPolicy(mode="shed", backlog_threshold=2,
                                  protect_priority=2))
    DEFER = IngressSpec(
        classes=ingress_profile("three-class-open").classes,
        admission=AdmissionPolicy(mode="defer", backlog_threshold=2,
                                  protect_priority=2))

    def test_shed_mode_dispositions(self):
        gateway = IngressGateway(self.SHED, capacity=8)
        assert gateway.submit(0.0, b"a", 2, 0.5) == "admitted"
        assert gateway.submit(0.1, b"a", 2, 0.5) == "duplicate"
        assert gateway.submit(0.2, b"b", 2, 0.5) == "admitted"
        # backlog at threshold: unprotected classes shed...
        assert gateway.submit(0.3, b"c", 2, 0.5) == "shed"
        # ...while the protected class (priority 2) passes the gate
        assert gateway.submit(0.4, b"d", 0, 9.0) == "admitted"
        assert gateway.offered == [1, 0, 4]
        assert gateway.admitted == [1, 0, 2]
        assert gateway.shed == [0, 0, 1]
        assert gateway.duplicates == [0, 0, 1]

    def test_protected_class_sheds_only_on_full_pool(self):
        gateway = IngressGateway(self.SHED, capacity=1)
        assert gateway.submit(0.0, b"a", 0, 9.0) == "admitted"
        assert gateway.submit(0.1, b"b", 0, 9.0) == "shed"
        assert gateway.shed == [1, 0, 0]

    def test_defer_parks_then_releases_with_original_submit_time(self):
        gateway = IngressGateway(self.DEFER, capacity=8)
        gateway.submit(0.0, b"a", 2, 0.5)
        gateway.submit(0.1, b"b", 2, 0.5)
        assert gateway.submit(0.2, b"c", 2, 0.5) == "deferred"
        assert gateway.deferred_pending(2) == 1
        assert gateway.release_deferred() == 0  # pressure still tripped
        gateway.pool.take(2)  # consensus drains the backlog
        assert gateway.release_deferred() == 1
        assert gateway.deferred_pending(2) == 0
        assert gateway.released == 1
        assert gateway.admitted == [0, 0, 3]
        # client-observed latency runs from the original submit instant
        assert gateway.meta[b"c"] == (2, 0.2)

    def test_pressure_follows_the_pool_backlog(self):
        gateway = IngressGateway(self.SHED, capacity=8)
        assert not gateway.pressure()
        gateway.submit(0.0, b"a", 2, 0.5)
        assert not gateway.pressure()
        gateway.submit(0.1, b"b", 2, 0.5)
        assert gateway.pressure()  # backlog reached the threshold of 2
        gateway.pool.take(1)
        assert not gateway.pressure()

    def test_ungated_policy_admits_every_class_up_to_capacity(self):
        spec = IngressSpec(classes=ingress_profile("three-class-open").classes)
        gateway = IngressGateway(spec, capacity=3)
        for index, tx in enumerate((b"a", b"b", b"c")):
            assert gateway.submit(0.1 * index, tx, 2, 0.5) == "admitted"
        assert not gateway.pressure()  # mode none has no pressure signal
        assert gateway.submit(0.3, b"d", 2, 0.5) == "shed"  # pool full
        assert gateway.admitted == [0, 0, 3] and gateway.shed == [0, 0, 1]

    def test_defer_queue_overflow_sheds(self):
        gateway = IngressGateway(self.DEFER, capacity=2)
        gateway.submit(0.0, b"a", 2, 0.5)
        gateway.submit(0.1, b"b", 2, 0.5)
        assert gateway.submit(0.2, b"c", 2, 0.5) == "deferred"
        assert gateway.submit(0.3, b"d", 2, 0.5) == "deferred"
        assert gateway.submit(0.4, b"e", 2, 0.5) == "shed"
        assert gateway.deferred_pending(2) == 2

    def test_conservation_under_randomized_grids(self):
        """The gateway invariant, fuzzed: random class grids x random
        policies x random op interleavings all conserve every class."""
        rng = random.Random(31337)
        for trial in range(12):
            num_classes = rng.randrange(1, 5)
            classes = tuple(
                TxClassSpec(
                    name=f"c{index}", weight=rng.uniform(0.1, 3.0),
                    priority=rng.randrange(3),
                    fee_min=0.0, fee_max=rng.uniform(0.0, 8.0),
                    size_jitter=rng.randrange(16),
                    drr_weight=rng.choice((0.0, 1.0, 4.0)))
                for index in range(num_classes))
            mode = rng.choice(("none", "shed", "defer"))
            admission = AdmissionPolicy() if mode == "none" \
                else AdmissionPolicy(
                    mode=mode,
                    backlog_threshold=rng.randrange(1, 8),
                    protect_priority=rng.randrange(4))
            spec = IngressSpec(classes=classes, admission=admission)
            gateway = IngressGateway(spec, capacity=rng.randrange(2, 12))
            committed = [0] * num_classes
            now = 0.0
            for _ in range(200):
                now += rng.uniform(0.0, 0.2)
                choice = rng.random()
                if choice < 0.7:
                    tx = b"t%d-%d" % (trial, rng.randrange(80))
                    class_index = rng.randrange(num_classes)
                    spec_class = classes[class_index]
                    gateway.submit(now, tx, class_index,
                                   rng.uniform(spec_class.fee_min,
                                               spec_class.fee_max))
                elif choice < 0.9:
                    for tx in gateway.pool.take(rng.randrange(1, 5)):
                        class_index, _ = gateway.meta.pop(tx)
                        gateway.pool.commit([tx])
                        committed[class_index] += 1
                else:
                    gateway.release_deferred()
            records = [
                ClassRecord(
                    name=spec_class.name, priority=spec_class.priority,
                    offered=gateway.offered[index],
                    admitted=gateway.admitted[index],
                    shed=gateway.shed[index],
                    deferred_pending=gateway.deferred_pending(index),
                    duplicates=gateway.duplicates[index],
                    committed=committed[index],
                    p50_latency_s=0.0, p90_latency_s=0.0, p99_latency_s=0.0)
                for index, spec_class in enumerate(classes)]
            verdict = check_ingress_conservation(records)
            assert verdict.ok, f"trial {trial}: {verdict.detail}"

    def test_conservation_check_is_loud(self):
        record = ClassRecord(
            name="c", priority=0, offered=5, admitted=3, shed=1,
            deferred_pending=0, duplicates=0, committed=2,
            p50_latency_s=0.0, p90_latency_s=0.0, p99_latency_s=0.0)
        assert not check_ingress_conservation([]).ok
        assert not check_ingress_conservation([record]).ok  # 5 != 3+1+0+0
        assert not check_ingress_conservation(
            [replace(record, shed=2, committed=4)]).ok  # committed > admitted
        assert check_ingress_conservation([replace(record, shed=2)]).ok


class TestStreamingDifferential:
    """The headline satellite: the no-ingress default path is bit-identical
    to a fifo-equivalent ingress across protocols and seeds."""

    @pytest.mark.parametrize("protocol", ["honeybadger-sc", "beat"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_fifo_equivalent_ingress_is_bit_identical(self, protocol, seed):
        scenario = Scenario.single_hop(4)
        spec = small_spec()
        baseline = run_streaming_consensus(protocol, scenario, spec,
                                           seed=seed)
        mirrored = run_streaming_consensus(
            protocol, scenario, spec, seed=seed,
            ingress=IngressSpec.fifo_equivalent(spec.arrival))
        assert epoch_digests(mirrored) == epoch_digests(baseline)
        assert mirrored.ledger_digest == baseline.ledger_digest
        # the whole simulated schedule, not just the outputs: the ingress
        # plumbing must not consume simulator randomness or reorder events
        assert mirrored.sim_events == baseline.sim_events
        base_dict, mirror_dict = asdict(baseline), asdict(mirrored)
        differing = [key for key, value in base_dict.items()
                     if value != mirror_dict[key]]
        assert differing == ["classes"]  # the one addition: a ClassRecord


class TestStreamingIngress:
    def test_three_class_overload_populates_class_records(self):
        result = run_streaming_consensus(
            "honeybadger-sc", Scenario.scale_single_hop(4), overload_spec(),
            seed=5, ingress=ingress_profile("three-class-shed"))
        assert result.decided
        assert [record.name for record in result.classes] \
            == ["high", "standard", "best-effort"]
        verdict = check_ingress_conservation(result.classes)
        assert verdict.ok, verdict.detail
        assert result.shed_total > 0  # past saturation, the gate bites
        high = result.classes[0]
        assert high.shed == 0 and high.deferred_pending == 0
        assert high.committed > 0
        for record in result.classes:
            if record.committed > 0:
                assert record.p50_latency_s <= record.p90_latency_s \
                    <= record.p99_latency_s

    def test_defer_policy_conserves_and_displaces_best_effort(self):
        result = run_streaming_consensus(
            "honeybadger-sc", Scenario.scale_single_hop(4), overload_spec(),
            seed=5, ingress=ingress_profile("three-class-defer"))
        assert result.decided
        verdict = check_ingress_conservation(result.classes)
        assert verdict.ok, verdict.detail
        high, _standard, best = result.classes
        assert best.name == "best-effort"
        assert best.shed + best.deferred_pending > 0
        assert high.shed == 0

    def test_ingress_run_replays_identically(self):
        kwargs = dict(spec=overload_spec(), seed=5,
                      ingress=ingress_profile("three-class-shed"))
        first = run_streaming_consensus(
            "beat", Scenario.scale_single_hop(4), **kwargs)
        second = run_streaming_consensus(
            "beat", Scenario.scale_single_hop(4), **kwargs)
        assert first == second
        assert asdict(first) == asdict(second)

    def test_different_seeds_differ(self):
        a = run_streaming_consensus(
            "beat", Scenario.scale_single_hop(4), overload_spec(), seed=5,
            ingress=ingress_profile("three-class-shed"))
        b = run_streaming_consensus(
            "beat", Scenario.scale_single_hop(4), overload_spec(), seed=6,
            ingress=ingress_profile("three-class-shed"))
        assert a != b

    def test_multihop_ingress_stream_conforms(self):
        """Gateways in front of every node of a clustered deployment: the
        stream decides, conforms and conserves, and the degenerate spec is
        the no-ingress multi-hop stream bit for bit."""
        scenario = Scenario.multi_hop(2, 4)
        spec = small_spec(epochs=2)
        observer = RunObserver()
        result = run_streaming_consensus(
            "honeybadger-sc", scenario, spec, seed=1, observer=observer,
            ingress=ingress_profile("three-class-shed"))
        assert result.decided and result.epochs_completed == 2
        verdicts = check_all(observer, result.decided, True,
                             scenario.timeout_s)
        assert [verdict.name for verdict in verdicts if not verdict.ok] == []
        assert len(verdicts) == 4
        verdict = check_ingress_conservation(result.classes)
        assert verdict.ok, verdict.detail
        baseline = run_streaming_consensus("honeybadger-sc", scenario, spec,
                                           seed=1)
        mirrored = run_streaming_consensus(
            "honeybadger-sc", scenario, spec, seed=1,
            ingress=IngressSpec.fifo_equivalent(spec.arrival))
        assert mirrored.ledger_digest == baseline.ledger_digest
        assert mirrored.sim_events == baseline.sim_events

    def test_membership_plus_ingress_redistributes_with_marks(self):
        """A crashed member's gateway backlog moves to the survivors at the
        boundary -- a transfer between pools, so conservation holds -- and
        the degenerate spec is the no-ingress stream under the same churn."""
        churn = ChurnSpec(initial_size=4, crash_times=(40.0,), horizon_s=100.0)
        scenario = Scenario.single_hop(5).with_membership(churn)
        spec = small_spec(epochs=5)
        result = run_streaming_consensus(
            "honeybadger-sc", scenario, spec, seed=7, ingress=THREE_OPEN)
        assert result.decided and result.reconfigurations >= 1
        verdict = check_ingress_conservation(result.classes)
        assert verdict.ok, verdict.detail
        assert all(verdict.ok for verdict in (
            check_ledger_continuity_across_reconfig(
                result.per_epoch, result.committees, result.ledger_digest),
            check_liveness_under_bounded_churn(
                result.per_epoch, result.committees, result.decided, 5)))
        baseline = run_streaming_consensus("honeybadger-sc", scenario, spec,
                                           seed=7)
        mirrored = run_streaming_consensus(
            "honeybadger-sc", scenario, spec, seed=7,
            ingress=IngressSpec.fifo_equivalent(spec.arrival))
        assert mirrored.ledger_digest == baseline.ledger_digest
        assert mirrored.sim_events == baseline.sim_events
        assert mirrored.committees == baseline.committees

    def test_boundary_transfer_moves_no_gateway_counter(self):
        """Redistribution re-admits into the survivors' *pools*: offered /
        admitted stay where the client submitted, the marks arrive intact,
        and a transfer the survivor refuses forgets its latency mark."""
        schedule = MembershipSchedule(range(5), range(5),
                                      [(1.0, "leave", 4)])
        run = StreamingRun("honeybadger-sc", Scenario.single_hop(5),
                           small_spec(epochs=1, warmup=0,
                                      arrival=replace(FAST, max_mempool=2)),
                           membership=schedule, ingress=THREE_OPEN)
        run.membership.install()
        leaver, heir = run.gateways[4], run.gateways[0]
        leaver.submit(0.0, b"moved", 1, 5.5)
        leaver.submit(0.0, b"refused", 2, 0.7)
        for filler in (b"f1", b"f2"):  # gateways 1-3 are full: they refuse
            for node_id in (1, 2, 3):
                run.gateways[node_id].submit(0.0, filler + bytes([node_id]),
                                             0, 9.0)
        run.deployment.sim.now = 2.0
        record = run._membership_boundary(0)
        assert record.departed == (4,) and run.membership.redistributed == 1
        assert leaver.pool.backlog == 0 and sum(leaver.admitted) == 2
        assert sum(heir.offered) == 0 and sum(heir.admitted) == 0
        assert heir.pool._pooled[1] == 1
        assert heir.pool.drain() == [(b"moved", 1, 5.5)]
        assert b"moved" in run.tx_meta and b"refused" not in run.tx_meta


class TestCampaignIngressCells:
    def test_cell_validation(self):
        single = TopologySpec.single(4, profile="scale")
        with pytest.raises(ValueError):  # unknown profile
            CampaignCell("beat", single, "none", stream_epochs=4,
                         ingress="four-class-open")
        with pytest.raises(ValueError):  # needs a streaming cell
            CampaignCell("beat", single, "none",
                         ingress="three-class-shed")
        # ingress composes with multi-hop topologies and with churn faults
        CampaignCell("beat", TopologySpec.multi(4, 4), "none",
                     stream_epochs=4, ingress="three-class-shed")
        CampaignCell("beat", TopologySpec.single(6), "node-churn-rate",
                     stream_epochs=4, ingress="three-class-shed")

    def test_cell_id_carries_ingress_suffix(self):
        cell = CampaignCell("beat", TopologySpec.single(4, profile="scale"),
                            "none", stream_epochs=4,
                            ingress="three-class-shed")
        assert cell.cell_id.endswith("|stream4|ing:three-class-shed")

    @pytest.mark.campaign
    def test_quick_ingress_cells_pass_conformance(self):
        for row in [row for row in QUICK_CELLS if "ingress" in row]:
            cell = CampaignCell(**row)
            outcome = run_cell(cell, quick=True)
            assert outcome.ok, [verdict for verdict in outcome.invariants
                                if not verdict.ok]
            assert outcome.ingress == cell.ingress
            assert len(outcome.ingress_classes) == 3
            names = {verdict.name for verdict in outcome.invariants}
            assert "ingress-conservation" in names
