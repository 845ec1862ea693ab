"""Tier-1 coverage for the streaming (sustained-load) subsystem.

Pins the four contracts the fifth harness entry point ships with:

* **mempool admission/dedup** -- FIFO order, duplicate and capacity drops
  counted, commit/requeue bookkeeping;
* **checkpoint/GC bounds** -- post-run router/transport state is empty with
  GC on and grows with the stream length with GC off;
* **pipelined-vs-sequential bit-identity** -- per-epoch digests at pipeline
  depth 1 equal depth 0 under the fault-free adversary (the locked gate with
  a lock-equals-decide protocol configuration);
* **seed determinism** -- equal arguments replay the streaming result bit
  for bit, different seeds differ (the regression the four older entry
  points already carry).
"""

from dataclasses import asdict, replace

import pytest

from repro.protocols.base import ConsensusConfig
from repro.testbed.ingress import ingress_profile
from repro.testbed.metrics import percentile
from repro.testbed.invariants import RunObserver, check_all
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.scenario_packs import load_pack
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import (
    Mempool,
    StreamingRun,
    StreamingSpec,
    run_streaming_consensus,
)
from repro.testbed.workload import ArrivalSpec, ChurnSpec, OpenLoopArrivals
from tests.helpers import epoch_digests, observer_digest

FAST = ArrivalSpec(rate_tps=4.0, transaction_bytes=32, max_mempool=512)
PLAIN = ConsensusConfig(use_threshold_encryption=False)


def small_spec(**overrides) -> StreamingSpec:
    defaults = dict(epochs=3, batch_size=3, arrival=FAST, warmup=12)
    defaults.update(overrides)
    return StreamingSpec(**defaults)


class TestMempool:
    def test_fifo_order_and_backlog(self):
        pool = Mempool(capacity=8)
        for value in (b"a", b"b", b"c"):
            assert pool.admit(value)
        assert pool.backlog == 3
        assert pool.take(2) == [b"a", b"b"]
        assert pool.backlog == 1

    def test_duplicate_admissions_are_dropped_and_counted(self):
        pool = Mempool(capacity=8)
        assert pool.admit(b"x")
        assert not pool.admit(b"x")
        assert pool.dropped_duplicate == 1
        # a taken (in-flight) transaction still dedups
        pool.take(1)
        assert not pool.admit(b"x")
        assert pool.dropped_duplicate == 2

    def test_capacity_bound_drops_and_counts(self):
        pool = Mempool(capacity=2)
        assert pool.admit(b"1") and pool.admit(b"2")
        assert not pool.admit(b"3")
        assert pool.dropped_capacity == 1
        assert pool.backlog == 2

    def test_commit_forgets_and_reopens_dedup(self):
        pool = Mempool(capacity=4)
        pool.admit(b"t")
        assert pool.take(1) == [b"t"]
        pool.commit([b"t"])
        assert pool.committed == 1
        # committed transactions are forgotten -- re-admission is allowed
        assert pool.admit(b"t")

    def test_requeue_returns_to_front_in_order(self):
        pool = Mempool(capacity=8)
        for value in (b"a", b"b", b"c", b"d"):
            pool.admit(value)
        taken = pool.take(2)  # a, b in flight
        pool.requeue(taken)
        assert pool.take(4) == [b"a", b"b", b"c", b"d"]

    def test_requeue_ignores_unknown_transactions(self):
        pool = Mempool(capacity=4)
        pool.admit(b"a")
        pool.requeue([b"ghost"])
        assert pool.backlog == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Mempool(capacity=0)


class TestPercentile:
    def test_nearest_rank_definition(self):
        # nearest-rank: the ceil(fraction * N)-th smallest value
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        assert percentile([float(v) for v in range(1, 11)], 0.90) == 9.0
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0
        assert percentile([5.0], 0.9) == 5.0

    def test_empty_sample_is_nan(self):
        value = percentile([], 0.5)
        assert value != value


class TestArrivals:
    def test_streams_are_pace_independent(self):
        spec = ArrivalSpec(rate_tps=3.0, transaction_bytes=32)
        first = OpenLoopArrivals(spec, num_nodes=3, seed=5)
        second = OpenLoopArrivals(spec, num_nodes=3, seed=5)
        # interleave reads in different orders; per-node streams must match
        a = [first.next_arrival(0) for _ in range(4)]
        _ = [first.next_arrival(1) for _ in range(2)]
        _ = [second.next_arrival(1) for _ in range(2)]
        b = [second.next_arrival(0) for _ in range(4)]
        assert a == b

    def test_times_strictly_increase_and_txs_unique(self):
        arrivals = OpenLoopArrivals(ArrivalSpec(rate_tps=10.0), 2, seed=9)
        times, txs = [], set()
        for _ in range(20):
            when, tx = arrivals.next_arrival(0)
            times.append(when)
            txs.add(tx)
        assert times == sorted(times) and len(set(times)) == len(times)
        assert len(txs) == 20

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate_tps=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(transaction_bytes=4)
        with pytest.raises(ValueError):
            ArrivalSpec(max_mempool=0)


class TestStreamingRuns:
    def test_single_hop_stream_decides_every_epoch(self):
        result = run_streaming_consensus(
            "honeybadger-sc", Scenario.single_hop(4), small_spec(), seed=7)
        assert result.decided
        assert result.epochs_completed == 3
        assert len(result.per_epoch) == 3
        assert result.committed_transactions > 0
        assert result.throughput_tps > 0
        assert result.ledger_digest

    def test_replays_identically(self):
        spec = small_spec()
        first = run_streaming_consensus("beat", Scenario.single_hop(4), spec,
                                        seed=21)
        second = run_streaming_consensus("beat", Scenario.single_hop(4), spec,
                                         seed=21)
        assert first == second
        assert epoch_digests(first) == epoch_digests(second)
        assert first.sim_events == second.sim_events

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = run_streaming_consensus("beat", Scenario.single_hop(4), spec,
                                    seed=22)
        b = run_streaming_consensus("beat", Scenario.single_hop(4), spec,
                                    seed=23)
        assert a != b

    def test_pipeline_depth1_bit_identical_to_sequential(self):
        """The acceptance contract: fault-free per-epoch digests at depth 1
        equal depth 0 (locked gate; lock-equals-decide configuration)."""
        scenario = Scenario.single_hop(4)
        spec = small_spec(epochs=5, warmup=30)
        depth0 = run_streaming_consensus("honeybadger-sc", scenario, spec,
                                         seed=42, config=PLAIN)
        depth1 = run_streaming_consensus("honeybadger-sc", scenario,
                                         replace(spec, pipeline_depth=1),
                                         seed=42, config=PLAIN)
        assert epoch_digests(depth0) == epoch_digests(depth1)
        differing = [key for key, value in asdict(depth0).items()
                     if value != asdict(depth1)[key]]
        assert differing == ["pipeline_depth"]

    def test_eager_pipelining_is_reproducible_and_live(self):
        scenario = Scenario.scale_single_hop(4)
        spec = small_spec(epochs=4, pipeline_depth=2, pipeline_gate="eager",
                          warmup=40,
                          arrival=replace(FAST, rate_tps=20.0))
        first = run_streaming_consensus("honeybadger-sc", scenario, spec,
                                        seed=13)
        second = run_streaming_consensus("honeybadger-sc", scenario, spec,
                                         seed=13)
        assert first == second
        assert first.decided

    def test_multihop_stream_decides(self):
        result = run_streaming_consensus(
            "honeybadger-sc", Scenario.multi_hop(4, 4),
            small_spec(epochs=2), seed=11)
        assert result.decided
        assert result.epochs_completed == 2
        assert result.committed_transactions > 0

    def test_stream_passes_invariant_checks(self):
        observer = RunObserver()
        scenario = Scenario.single_hop(4)
        result = run_streaming_consensus("beat", scenario, small_spec(),
                                         seed=17, observer=observer)
        verdicts = check_all(observer, result.decided, True,
                             scenario.timeout_s)
        assert all(verdict.ok for verdict in verdicts)
        # one decision domain per epoch
        assert len(observer.domains()) == 3

    def test_epoch_crash_fault_mid_stream(self):
        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={3: "epoch-crash"}))
        result = run_streaming_consensus("honeybadger-sc", scenario,
                                         small_spec(epochs=3), seed=19)
        assert result.decided  # f=1 crash: honest nodes ride it out
        assert result.epochs_completed == 3

    def test_epoch_crash_beyond_stream_fails_loudly(self):
        # a mid-stream fault that can never fire must not pass vacuously
        from repro.testbed.harness import DeploymentError

        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={3: "epoch-crash"}))
        with pytest.raises(DeploymentError, match="epoch 2 can never fire"):
            run_streaming_consensus("honeybadger-sc", scenario,
                                    small_spec(epochs=2), seed=19)

    def test_epoch_crash_is_streaming_only(self):
        from repro.testbed.harness import DeploymentError, run_consensus

        scenario = Scenario.single_hop(4).with_byzantine(
            ByzantineSpec(assignments={3: "epoch-crash"}))
        with pytest.raises(DeploymentError):
            run_consensus("honeybadger-sc", scenario, seed=1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StreamingSpec(epochs=0)
        with pytest.raises(ValueError):
            StreamingSpec(pipeline_depth=-1)
        with pytest.raises(ValueError):
            StreamingSpec(warmup=-1)
        with pytest.raises(ValueError):
            StreamingSpec(pipeline_gate="sideways")


class TestCheckpointGc:
    def _finished_run(self, epochs: int = 4) -> StreamingRun:
        run = StreamingRun("honeybadger-sc", Scenario.single_hop(4),
                           small_spec(epochs=epochs), seed=29)
        result = run.run()
        assert result.decided
        return run

    def test_gc_releases_all_epoch_state(self):
        run = self._finished_run()
        for runtime in run.deployment.runtimes.values():
            assert not runtime.router._components
            assert not runtime.transport._active
            assert not runtime.transport._complete

    def test_release_frees_the_batching_slots(self):
        run = self._finished_run()
        assert run.deployment.runtimes
        for runtime in run.deployment.runtimes.values():
            assert not runtime.transport._groups
            assert not runtime.transport._dirty

    def test_gc_state_is_bounded_by_window_not_epochs(self):
        short = self._finished_run(epochs=2)
        long = self._finished_run(epochs=4)
        for run in (short, long):
            assert all(not runtime.router._components
                       for runtime in run.deployment.runtimes.values())

    def test_late_messages_for_released_scope_are_dropped(self):
        # a message arriving after its epoch was released must not
        # re-populate the router's pending buffers (O(history) leak)
        from repro.components.base import ComponentRouter
        from repro.core.packet import ComponentMessage

        router = ComponentRouter()
        released_tag = ("hb", 0)
        router.release_tag(released_tag)
        router.dispatch(ComponentMessage(kind="rbc", instance=0, phase="echo",
                                         sender=1, payload={},
                                         tag=released_tag))
        router.dispatch(ComponentMessage(kind="cbc", instance=2, phase="echo",
                                         sender=1, payload={},
                                         tag=(released_tag, "value")))
        assert sum(map(len, router._pending.values())) == 0
        # an unknown-but-unreleased scope still buffers (early arrival)
        router.dispatch(ComponentMessage(kind="rbc", instance=0, phase="echo",
                                         sender=1, payload={},
                                         tag=("hb", 1)))
        assert sum(map(len, router._pending.values())) == 1


def pinned_stream(name: str) -> dict:
    """The arguments of one pinned stream (everything but the seed)."""
    args = dict(protocol="honeybadger-sc", scenario=Scenario.single_hop(4),
                spec=small_spec())
    if name == "sh4-depth1":
        args["spec"] = small_spec(pipeline_depth=1)
    elif name.startswith("mh2x4"):
        args["scenario"] = Scenario.multi_hop(2, 4)
        args["spec"] = small_spec(
            epochs=2, pipeline_depth=int(name.endswith("depth1")))
    elif name == "crash-replace":
        args["scenario"] = Scenario.single_hop(5).with_membership(ChurnSpec(
            initial_size=4, crash_times=(40.0,), horizon_s=100.0))
        args["spec"] = small_spec(epochs=5)
    elif name == "pack":
        args.update(protocol="beat", pack=load_pack("burst-loss"))
    elif name == "ingress-shed":
        args.update(
            scenario=Scenario.scale_single_hop(4),
            spec=StreamingSpec(epochs=4, batch_size=4, arrival=ArrivalSpec(
                rate_tps=120.0, transaction_bytes=48, max_mempool=256)),
            ingress=ingress_profile("three-class-shed"))
    elif name == "epoch-crash":
        args["scenario"] = Scenario.single_hop(4).with_byzantine(ByzantineSpec(
            assignments={3: "epoch-crash"}))
    return args


#: (ledger digest, sim events, repr(duration_s), committed transactions,
#: observer digest) recorded on the commit before ``StreamingRun`` moved onto
#: ``harness.Epoch`` (PR 19's parent).  Every figure is a pure function of
#: the arguments: a driver that installs, proposes, feeds, checkpoints or
#: releases in another order -- or replays decisions into the observer in
#: another order or under another domain -- moves one of these.  (A
#: two-phase epoch's content locks when it settles, so the two multi-hop
#: depths pin the same figures.)
PINNED_STREAMS = {
    ("sh4-depth0", 3): (
        "e289185619dbb8778c4c7cbc48852ac4013fbcce2d64e2b8cd1c1900e820a409",
        2474, "41.545600391268636", 24,
        "dcb194cfe2ba24a64422f79496ee4bf1b3b201acf40fb30f549929d30cfad118"),
    ("sh4-depth0", 11): (
        "3da62148e8ea2676a1f9b36fcc08ed3ba58b06ec3121a35bddec6268037223be",
        2251, "38.13072856862611", 27,
        "a5937f1afc5b9762318f16003720b341a284d2714985bc6421c765df67f6ec18"),
    ("sh4-depth1", 3): (
        "8fed36bdd4a6845ad304ce6b3e5fc40f9c07b9a30c05c643d553c65cdd3fbcd1",
        2158, "36.622376918460276", 27,
        "939dabe747f6022f0c5a2b1573143021cd4dbe823737d7f76ff1045a3f7b81ed"),
    ("sh4-depth1", 11): (
        "4b3be04e31d01ad79bb38deb61dacf09488bd18f7116d8b847e9d5298c72d41a",
        2517, "42.155130673039956", 27,
        "dceb860c6d2f311d1b4f5ccd512b7efcd9a6adace0489cbce0f363206f3b936a"),
    ("mh2x4-depth0", 3): (
        "84915bb1404f10b67a740c791116fe41f437c8d43b0fafaae49a7870d3ed7e65",
        3145, "29.32932851380027", 27,
        "3f9b2c0e8ec87780d19f8c42cb56cac3499e6ea90a37c9a381b80f4200ec8531"),
    ("mh2x4-depth0", 11): (
        "a8bb804390d47b84bdacbf620bf7b1b93af20785db192728c38ab8f613689a7c",
        3439, "31.07552589203478", 18,
        "a165e16f6fe5940a057e16f2ac0d09df62308ac66ec15a3e7cf196cb11cf81c0"),
    ("mh2x4-depth1", 3): (
        "84915bb1404f10b67a740c791116fe41f437c8d43b0fafaae49a7870d3ed7e65",
        3145, "29.32932851380027", 27,
        "3f9b2c0e8ec87780d19f8c42cb56cac3499e6ea90a37c9a381b80f4200ec8531"),
    ("mh2x4-depth1", 11): (
        "a8bb804390d47b84bdacbf620bf7b1b93af20785db192728c38ab8f613689a7c",
        3439, "31.07552589203478", 18,
        "a165e16f6fe5940a057e16f2ac0d09df62308ac66ec15a3e7cf196cb11cf81c0"),
    ("crash-replace", 3): (
        "67ade31958d66cc59bfa33f936504010f07b9b469dbeb15b9383d45db53ffd11",
        3484, "53.32969706549585", 45,
        "50b663e7278e9d47361b65081e2bb43c43b978f8fad901c2538c723dc37954a1"),
    ("crash-replace", 11): (
        "605186bdc4e8cef1ecc646a910b312b6a5481ec50774878c346810c6a5b988d8",
        4421, "64.6281612733165", 45,
        "622cdacf2ecfedd55e753ce4bd87717ab1382faf597cc9615a4f03244b592e44"),
    ("pack", 3): (
        "c7351b3bb92275f9c878814d202044d208b3dde43722bff1e6550e8149c4df4e",
        2560, "54.594352231796805", 27,
        "5edb7dffa63680ad40916ea7649b03302c868d8b5d530b12a29d8227f540bc12"),
    ("pack", 11): (
        "945d35da644fbfa3b2784a6aacb1dafe0d788f5a68d38b84d79de93ad88e6180",
        2569, "54.90329842880867", 27,
        "33155065a01ec5ffe76f3be3d6403f705fa2d72f6c02c303ea23dfb88679f01e"),
    ("ingress-shed", 3): (
        "376c596004cdc7b45e18367274daf27d794b356dbba9a95d9f40feffd9093584",
        2917, "1.007502996551723", 36,
        "43bdd2b341fc5975900c39c475da596447054b5d6d9fe99078ec06ce076ff737"),
    ("ingress-shed", 11): (
        "959f59b0ed76cea2cc1998696020d899a58b90c618cc7d5f356128ad895330f7",
        2861, "0.9733727283080564", 36,
        "a6e5c6109e61dc987a2cdac673df712586d3afb4fb6092ea8dc6d315e52f5805"),
    # crash at epoch 2, the one crash epoch there is; recorded on the commit
    # before the crash epoch stopped being a ``ByzantineSpec`` field
    ("epoch-crash", 3): (
        "9b1694dd9a63dd152b21d7eab5a7879245e55edafa203b25f1bd04bdd69e097d",
        2164, "38.66160263603246", 24,
        "23f3ed33b5cc529f8b7cdb8ed98b01a1a6dd2622f170028a295d4a7f2cb5513f"),
    ("epoch-crash", 11): (
        "e17b79a8d10b634f1a7417014c81f53a7d0b16e5cbe0655d27f8a18a370b3d98",
        2099, "38.08231231876936", 27,
        "7d1061ef56dffce4c46e78d1f7f0cc5f884f94cc261ec4c15984348955ba6ffa"),
}


class TestPinnedIdentity:
    """The bit-identity contract of the streaming runner, in tier-1: both
    hop counts at both pipeline depths, churn, a scenario pack, a gated
    ingress and a mid-stream crash, two seeds each."""

    @pytest.mark.parametrize("name,seed", sorted(PINNED_STREAMS))
    def test_stream_reproduces_the_recorded_figures(self, name, seed):
        observer = RunObserver()
        result = run_streaming_consensus(seed=seed, observer=observer,
                                         **pinned_stream(name))
        assert (result.ledger_digest, result.sim_events,
                repr(result.duration_s), result.committed_transactions,
                observer_digest(observer)) == PINNED_STREAMS[name, seed]
