"""Hot-path micro-benchmarks and the ``BENCH_hotpath.json`` trajectory.

Every consensus experiment funnels through three pure-Python hot paths:
group exponentiation in :mod:`repro.crypto`, Reed-Solomon interpolation in
:mod:`repro.components.erasure`, and the event heap in :mod:`repro.net.sim`.
This module measures each of them -- both the optimised implementation and a
seed-equivalent reference path kept in ``tests/reference.py`` for the
bit-identity tests -- and writes a machine-readable ``BENCH_hotpath.json`` at
the repo root so the performance trajectory is recorded across changes.

Run directly (writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_hotpath_micro.py [--quick] [--out PATH]

or import :func:`run_benchmarks` (``scripts/perf_smoke.py`` does this to
gate regressions without touching the recorded baseline).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import random
import sys
import time
import tracemalloc
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from typing import Callable

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_scale_setup import (  # noqa: E402
    DEALER_NUM_NODES,
    bench_dealer,
    dealer_speedups,
)
from bench_ingress import OFFERED_TPS, bench_ingress  # noqa: E402
from bench_scenario import SCENARIO_PACK, bench_scenario  # noqa: E402
from bench_shard_scale import (  # noqa: E402
    bench_shard,
    shard_speedups,
    shard_workers,
)
from bench_streaming import STREAM_EPOCHS, bench_streaming  # noqa: E402
from repro.components import erasure  # noqa: E402
from repro.components.base import Component  # noqa: E402
from repro.crypto import backend as crypto_backend  # noqa: E402
from repro.crypto import group as crypto_group  # noqa: E402
from repro.crypto.digital_sig import generate_keypair  # noqa: E402
from repro.crypto.fastpath import FixedBaseTable  # noqa: E402
from repro.crypto.group import DEFAULT_GROUP  # noqa: E402
from repro.crypto.threshold_sig import deal_threshold_sig  # noqa: E402
from repro.net.sim import PeriodicTimer, Simulator  # noqa: E402
from repro.protocols.base import PROTOCOL_NAMES  # noqa: E402
from repro.testbed import dealer_cache  # noqa: E402
from repro.testbed.dealer_cache import SCHEME_KEYRING  # noqa: E402
from repro.testbed.harness import (  # noqa: E402
    Deployment,
    Epoch,
    build_deployment,
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.scenarios import Scenario  # noqa: E402
from repro.testbed.streaming import (  # noqa: E402
    StreamingSpec,
    run_streaming_consensus,
)
from repro.testbed.workload import ArrivalSpec  # noqa: E402
from tests.reference import (  # noqa: E402
    ReferenceSimulator,
    hash_to_group_reference,
    power_of_g_reference,
    unstamped,
    verify_dlog_equality_reference,
)

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_hotpath.json")

# Benchmark configuration (matches the acceptance criteria: n=16, t=5 for
# share verification, k=32 for erasure decode).
NUM_PARTIES = 16
THRESHOLD = 6  # t + 1 with t = 5
ERASURE_K = 32
ERASURE_N = 48
ERASURE_PAYLOAD = 3000  # bytes -> 1000 chunks -> 32 polynomials at k=32
FANOUT_NODES = 32  # one sender, 31 receivers: the components-n32 fan-out
FANOUT_FRAMES = 200  # per storm; below the MAC queue limit of 256
CHURN_TIMERS = 200  # timers restarted CHURN_RESTARTS times each, then run
CHURN_RESTARTS = 20


def _rate(operation: Callable[[], int], min_seconds: float) -> float:
    """Run ``operation`` (which returns how many ops it performed) until
    ``min_seconds`` of wall clock have elapsed; return ops/second."""
    total_ops = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_seconds:
        total_ops += operation()
        elapsed = time.perf_counter() - start
    return total_ops / elapsed


def _rate_prepared(prepare: Callable[[], object],
                   work: Callable[[object], int], min_seconds: float) -> float:
    """Like :func:`_rate` but excludes per-iteration setup from the timing.

    Each iteration gets a *fresh* input from ``prepare`` (off the clock), so
    memoisation caches see the realistic one-verification-per-share pattern
    rather than re-measuring warm cache hits.
    """
    total_ops = 0
    total_time = 0.0
    while total_time < min_seconds:
        context = prepare()
        start = time.perf_counter()
        ops = work(context)
        total_time += time.perf_counter() - start
        total_ops += ops
    return total_ops / total_time


def _rate_pair(first: Callable[[], int], second: Callable[[], int],
               min_seconds: float) -> tuple[float, float]:
    """Ops/second of two operations measured in alternation.

    The host changes speed for seconds at a time; a ratio of two rates taken
    one after the other inherits that drift, one taken from interleaved
    slices does not.
    """
    ops = [0, 0]
    seconds = [0.0, 0.0]
    while min(seconds) < min_seconds:
        for index, operation in enumerate((first, second)):
            start = time.perf_counter()
            ops[index] += operation()
            seconds[index] += time.perf_counter() - start
    return ops[0] / seconds[0], ops[1] / seconds[1]


# ----------------------------------------------------------------- group exp
def bench_group_exp(budget: float) -> dict[str, float]:
    group = DEFAULT_GROUP
    rng = random.Random(1001)
    exponents = [rng.randrange(1, group.q) for _ in range(256)]

    def seed_op() -> int:
        for exponent in exponents:
            power_of_g_reference(group, exponent)
        return len(exponents)

    def fast_op() -> int:
        for exponent in exponents:
            group.power_of_g(exponent)
        return len(exponents)

    # A base made here as ``g^x`` (a hash point, an ephemeral, a dealt key):
    # ``Group.exp`` answers it from g's table through its known log, so it
    # must beat builtin ``pow`` on the same base (a full-width base: ``pow``
    # is ~12% quicker on the two-digit g that ``seed_op`` uses).
    known_base = group.power_of_g(rng.randrange(1, group.q))

    def known_op() -> int:
        for exponent in exponents:
            group.exp(known_base, exponent)
        return len(exponents)

    def known_pow_op() -> int:
        for exponent in exponents:
            pow(known_base, exponent, group.p)
        return len(exponents)

    known, known_pow = _rate_pair(known_op, known_pow_op, budget)
    return {
        "group_exp_pow": _rate(seed_op, budget),
        "group_exp_fixed_base": _rate(fast_op, budget),
        "group_exp_known_base": known,
        "group_exp_known_base_pow": known_pow,
    }


def backend_powm_honest_epoch() -> int:
    """Backend ``powm`` calls made by one honest epoch of every protocol,
    on keys dealt fresh in this process.  A count, so a gate on it cannot
    flake: every base the honest path raises was made here as a power of
    ``g``."""
    calls = [0]
    original = crypto_backend.powm

    def counting(*args) -> int:
        calls[0] += 1
        return original(*args)

    shared_cache = dealer_cache.DEFAULT_DEALER_CACHE
    dealer_cache.DEFAULT_DEALER_CACHE = dealer_cache.DealerCache()
    crypto_backend.powm = counting
    try:
        for protocol in PROTOCOL_NAMES:
            assert run_consensus(protocol, Scenario.single_hop(4),
                                 seed=1003).decided
    finally:
        crypto_backend.powm = original
        dealer_cache.DEFAULT_DEALER_CACHE = shared_cache
    return calls[0]


def table_pow_honest_epoch(seed: int = 11) -> dict[str, int]:
    """Fixed-base exponentiations (``FixedBaseTable.pow``) in one honest
    n=4 epoch of each protocol at ``seed``, run in ``PROTOCOL_NAMES`` order
    after one warm-up epoch at another seed.  The known-log memo, the
    hash-to-group memo and the dealer cache start empty, so what ran
    earlier in the process cannot move it: a count, so a gate on it cannot
    flake.  A share value computed where only its exponent is read, or a
    combined exponent raised by every node instead of once per process,
    puts exponentiations back here."""
    calls = [0]
    original = FixedBaseTable.pow

    def counting(table, exponent) -> int:
        calls[0] += 1
        return original(table, exponent)

    shared_cache = dealer_cache.DEFAULT_DEALER_CACHE
    generators = crypto_group._GENERATORS
    dealer_cache.DEFAULT_DEALER_CACHE = dealer_cache.DealerCache()
    crypto_group._GENERATORS = {}
    crypto_group._hash_to_group_cached.cache_clear()
    FixedBaseTable.pow = counting
    counts = {}
    try:
        assert run_consensus(PROTOCOL_NAMES[0], Scenario.single_hop(4),
                             seed=seed - 1).decided
        for protocol in PROTOCOL_NAMES:
            calls[0] = 0
            assert run_consensus(protocol, Scenario.single_hop(4),
                                 seed=seed).decided
            counts[protocol] = calls[0]
    finally:
        FixedBaseTable.pow = original
        crypto_group._GENERATORS = generators
        dealer_cache.DEFAULT_DEALER_CACHE = shared_cache
    return counts


# ------------------------------------------------------------------- signatures
def _forced(artefact) -> bool:
    """Whether the lazy witness of a signature, or of a share's proof, has
    been computed."""
    return "_witness" not in vars(getattr(artefact, "proof", artefact))


def _long_road_copy(artefact):
    """An equal copy without the maker's stamp, its witness computed: what a
    receiver in another process holds."""
    repr(artefact)  # reads, and so computes, every field
    return unstamped(artefact)


def bench_schnorr(budget: float) -> dict[str, float]:
    """Per-packet signing and verification, one fresh signature per call
    (the process-wide verification memo would answer a repeated one).

    ``schnorr_verify`` is the long road -- signatures stripped of their
    maker's stamp off the clock, so the real verifier runs;
    ``schnorr_verify_minted`` is what a simulated receiver pays for a
    signature made in this process (the stamp comparison).
    ``schnorr_sign`` draws a nonce and defers the rest (lazy witnesses);
    ``schnorr_sign_verify_minted`` / ``schnorr_sign_verify_long_road`` time
    a sender plus one receiver, measured in alternation: the honest path of
    a run, against the same work with every witness computed and checked.
    """
    rng = random.Random(1101)
    signing_key, verify_key = generate_keypair(rng, owner=0)
    counter = [0]

    def make_minted_batch() -> list:
        batch = []
        for _ in range(64):
            counter[0] += 1
            message = b"hotpath-packet-%d" % counter[0]
            batch.append((message, signing_key.sign(message, rng)))
        return batch

    def make_batch() -> list:
        return [(message, _long_road_copy(signature))
                for message, signature in make_minted_batch()]

    def verify(batch: list) -> int:
        for message, signature in batch:
            assert verify_key.verify(message, signature)
        return len(batch)

    sign_verify_minted, sign_verify_long_road = _rate_pair(
        lambda: verify(make_minted_batch()), lambda: verify(make_batch()),
        budget)
    return {
        "schnorr_sign": _rate(lambda: len(make_minted_batch()), budget),
        "schnorr_verify": _rate_prepared(make_batch, verify, budget),
        "schnorr_verify_minted": _rate_prepared(make_minted_batch, verify,
                                                budget),
        "schnorr_sign_verify_minted": sign_verify_minted,
        "schnorr_sign_verify_long_road": sign_verify_long_road,
    }


def witnesses_forced_on_minted_loops() -> int:
    """Witnesses computed by 64 signatures and 64 shares, each made and
    then verified by its stamp: nothing on that path may read a field."""
    rng = random.Random(1102)
    signing_key, verify_key = generate_keypair(rng, owner=0)
    schemes = deal_threshold_sig(4, 2, rng)
    forced = 0
    for index in range(64):
        message = b"hotpath-forced-%d" % index
        signature = signing_key.sign(message, rng)
        share = schemes[index % 4].sign_share(message, rng)
        assert verify_key.verify(message, signature)
        assert schemes[(index + 1) % 4].verify_share(message, share)
        forced += _forced(signature) + _forced(share)
    return forced


# ------------------------------------------------------------ threshold shares
def bench_threshold_shares(budget: float) -> dict[str, float]:
    rng = random.Random(2002)
    schemes = deal_threshold_sig(NUM_PARTIES, THRESHOLD, rng)
    public_key = schemes[0].public_key
    counter = [0]

    def fresh_message() -> bytes:
        counter[0] += 1
        return b"hotpath-bench-%d" % counter[0]

    def sign_op() -> int:
        message = fresh_message()
        for scheme in schemes[:THRESHOLD]:
            scheme.sign_share(message, rng)
        return THRESHOLD

    def make_minted_batch() -> tuple[bytes, list]:
        message = fresh_message()
        return message, [scheme.sign_share(message, rng)
                         for scheme in schemes[:THRESHOLD]]

    def make_batch() -> tuple[bytes, list]:
        # the verifiers below are measured on the long road: shares stripped
        # of their maker's stamp, off the clock
        message, shares = make_minted_batch()
        return message, [_long_road_copy(share) for share in shares]

    def verify_seed(batch: tuple[bytes, list]) -> int:
        # Seed-equivalent per-share verification, faithful to the seed's
        # ``verify_share``: the message is re-hashed to the group on every
        # call (no memoisation existed), membership tests are pow-based, and
        # each proof costs four full pow() calls.
        message, shares = batch
        for share in shares:
            point = hash_to_group_reference(public_key.group, b"tsig", message)
            assert share.message_point == point
            verify_key = public_key.share_verify_keys[share.signer - 1]
            assert verify_dlog_equality_reference(
                public_key.group, share.proof, base_h=point,
                value_g=verify_key, value_h=share.value,
                context=b"tsig-share")
        return len(shares)

    def verify_single(batch: tuple[bytes, list]) -> int:
        message, shares = batch
        for share in shares:
            assert public_key.verify_share(message, share)
        return len(shares)

    sign_verify_minted, sign_verify_long_road = _rate_pair(
        lambda: verify_single(make_minted_batch()),
        lambda: verify_single(make_batch()), budget)
    return {
        "share_sign": _rate(sign_op, budget),
        "share_sign_verify_minted": sign_verify_minted,
        "share_sign_verify_long_road": sign_verify_long_road,
        "share_verify_seed": _rate_prepared(make_batch, verify_seed, budget),
        "share_verify_single": _rate_prepared(make_batch, verify_single, budget),
        "share_verify_minted": _rate_prepared(make_minted_batch, verify_single,
                                              budget),
    }


def bench_share_combine(budget: float) -> dict[str, float]:
    """``combine(..., verify=False)`` -- the only form any run calls: every
    component verifies a share when it arrives and combines at quorum.

    Two shapes.  ``share_combine`` keeps the trajectory's row: the six lowest
    signers of 16, whose integer Lagrange weights are 5 bits under no root.
    ``share_combine_n4_t2`` is what every combine of ``stream-n4`` and
    ``ingress-n4`` looks like: all six pairs of four signers in turn (two of
    them need the shared root).  One batch of shares serves every pass: a
    combine reads each share's recorded exponent, and the combined ``g^e``
    is memoised per statement, so these rows time what n - 1 of the n nodes
    combining a statement pay.  The first pays one fixed-base
    exponentiation more (``group_exp_fixed_base``).
    """
    results = {}
    for suffix, num_parties, threshold, every_subset in (
            ("", NUM_PARTIES, THRESHOLD, False), ("_n4_t2", 4, 2, True)):
        rng = random.Random(2002)
        schemes = deal_threshold_sig(num_parties, threshold, rng)
        public_key = schemes[0].public_key
        message = b"hotpath-combine"
        shares = [scheme.sign_share(message, rng) for scheme in schemes]
        subsets = list(combinations(shares, threshold)) if every_subset \
            else [shares[:threshold]]

        def combine_all() -> int:
            for subset in subsets:
                public_key.combine(message, subset, verify=False)
            return len(subsets)

        results[f"share_combine{suffix}"] = _rate(combine_all, budget)

    # The wide road of a combine whose share values have no known log: a
    # product of full-width powers.
    group = DEFAULT_GROUP
    rng = random.Random(2003)
    pairs = [(group.power_of_g(rng.randrange(1, group.q)),
              rng.randrange(1, group.q)) for _ in range(THRESHOLD)]

    def multi_powm_once() -> int:
        crypto_backend.multi_powm(pairs, group.p)
        return 1

    results["multi_powm_wide"] = _rate(multi_powm_once, budget)
    return results


# --------------------------------------------------------------------- erasure
def bench_erasure(budget: float) -> dict[str, float]:
    rng = random.Random(3003)
    payload = bytes(rng.randrange(256) for _ in range(ERASURE_PAYLOAD))
    blocks = erasure.encode_blocks(payload, ERASURE_K, ERASURE_N)
    selection = blocks[8:8 + ERASURE_K]  # a non-trivial (non 1..k) point set
    points = [block.point for block in selection]

    def encode_op() -> int:
        erasure.encode_blocks(payload, ERASURE_K, ERASURE_N)
        return 1

    def decode_seed_op() -> int:
        # Seed-equivalent decode: per-basis Lagrange expansion, O(k^3) per
        # payload polynomial (the reference implementation kept in-module).
        chunks = []
        for poly_index in range(len(selection[0].values)):
            values = [block.values[poly_index] for block in selection]
            chunks.extend(erasure._interpolate_coefficients(points, values))
        assert erasure._unchunk(chunks, len(payload)) == payload
        return 1

    def decode_op() -> int:
        assert erasure.decode_blocks(selection) == payload
        return 1

    erasure.decode_blocks(selection)  # build the cached matrix off the clock
    return {
        "erasure_encode_k32": _rate(encode_op, budget),
        "erasure_decode_seed_k32": _rate(decode_seed_op, max(budget, 0.5)),
        "erasure_decode_k32": _rate(decode_op, budget),
    }


# ------------------------------------------------------------------- simulator
@dataclass(order=True)
class _SeedEvent:
    """Replica of the seed kernel's ``order=True`` dataclass event."""

    time: float
    seq: int
    callback: Callable[[], None] = dataclass_field(compare=False)
    cancelled: bool = dataclass_field(default=False, compare=False)
    label: str = dataclass_field(default="", compare=False)


class _CountingComponent(Component):
    """Counts the messages dispatched to it (into a shared one-cell list)."""

    kind = "fanout"

    def __init__(self, ctx, tally: list[int]) -> None:
        super().__init__(ctx, 0, tag="bench")
        self.tally = tally
        # nothing is "unfinished": keeps the NACK repair cycle off the air
        ctx.transport.mark_complete(self.key)

    def handle(self, message) -> None:
        self.tally[0] += 1


def bench_frame_fanout(budget: float) -> float:
    """Deliveries per second of one sender storming 31 receivers.

    The broadcast property as the simulator pays for it: every frame is one
    ``tx-end`` fanning out into 31 ``rx`` plus 31 ``rx-process`` events, each
    through the real channel, node, ``BaselineTransport`` (one message per
    frame), router and a component.  Whatever a delivery costs in Python --
    a per-receiver closure, a property, a re-derived label -- shows here
    before it shows in the ledger.
    """
    def prepare():
        deployment = build_deployment(
            Scenario.scale_single_hop(FANOUT_NODES), batched=False, seed=0,
            crypto_schemes=(SCHEME_KEYRING,))
        tally = [0]
        for runtime in deployment.runtimes.values():
            runtime.router.register(_CountingComponent(runtime.ctx, tally))
        sender = deployment.runtimes[0].router.get("fanout", "bench", 0)
        for index in range(FANOUT_FRAMES):
            sender.send("storm", {"index": index}, payload_bytes=8, slot=index)
        tally[0] = 0  # the sender's own copies were delivered on send
        return deployment, tally

    def work(context) -> int:
        deployment, tally = context
        target = FANOUT_FRAMES * (FANOUT_NODES - 1)
        finished = deployment.sim.run_until(lambda: tally[0] >= target,
                                            timeout=600.0)
        deployment.close()
        assert finished and tally[0] == target, tally
        return target

    return _rate_prepared(prepare, work, budget)


def bench_simulator(budget: float) -> dict[str, float]:
    """Events per second through the kernel, three ways.

    ``sim_events`` is the kernel (an event is its heap entry);
    ``sim_events_event_objects`` is the same work on the kernel that built
    an ``Event`` object per scheduled callback (``tests/reference.py``),
    measured in alternation with it; ``sim_events_seed`` is the seed's
    ``order=True`` dataclass heap.  The kernels run one window with no poll,
    which is one Python call per event.  ``sim_timer_churn`` restarts
    periodic timers (the transports' resend timers) -- a cancel plus a
    schedule each, enough of them to compact the heap -- and then runs the
    survivors' first firing.
    """
    batch = 20_000

    def seed_op() -> int:
        # Seed-equivalent kernel: dataclass events compared by generated
        # __lt__ inside the heap.
        queue: list[_SeedEvent] = []
        count = [0]

        def callback() -> None:
            count[0] += 1

        for seq in range(batch):
            heapq.heappush(queue,
                           _SeedEvent(time=seq * 1e-6, seq=seq, callback=callback))
        while queue:
            event = heapq.heappop(queue)
            if event.cancelled:
                continue
            event.callback()
        assert count[0] == batch
        return batch

    def kernel_op(kernel) -> Callable[[], int]:
        def operation() -> int:
            sim = kernel()
            count = [0]

            def callback() -> None:
                count[0] += 1

            for seq in range(batch):
                sim.schedule(seq * 1e-6, callback)
            sim.run_window(batch * 1e-6)
            assert count[0] == batch
            return batch
        return operation

    def timer_churn_op() -> int:
        sim = Simulator()
        fired = [0]

        def callback() -> None:
            fired[0] += 1

        timers = [PeriodicTimer(sim, 1.0, callback)
                  for _ in range(CHURN_TIMERS)]
        for _restart in range(CHURN_RESTARTS):
            for timer in timers:
                timer.start()
        sim.run_window(1.0)
        assert fired[0] == CHURN_TIMERS
        assert sim.pending_events() == CHURN_TIMERS  # the next firings
        return CHURN_TIMERS * CHURN_RESTARTS

    sim_events, event_objects = _rate_pair(
        kernel_op(Simulator), kernel_op(ReferenceSimulator), budget)
    return {
        "sim_events_seed": _rate(seed_op, budget),
        "sim_events": sim_events,
        "sim_events_event_objects": event_objects,
        "sim_timer_churn": _rate(timer_churn_op, budget),
        "frame_fanout_deliveries": bench_frame_fanout(budget),
    }


def kernel_calls_per_event(kernel=Simulator, events: int = 1000) -> float:
    """Python-level calls a kernel makes per scheduled and fired event, the
    callback's own excluded.  A count, not a rate: a gate on it cannot flake.
    The kernel makes one (``schedule``); the event-object kernel made three
    (``schedule``, ``_push``, ``Event.__init__``)."""
    def callback() -> None:
        pass

    def calls(count: int) -> int:
        sim = kernel()
        seen = [0]

        def profile(frame, event, arg) -> None:
            if event == "call" and frame.f_code is not callback.__code__:
                seen[0] += 1

        sys.setprofile(profile)
        try:
            for index in range(count):
                sim.schedule(index * 1e-6, callback)
            sim.run_window(count * 1e-6)
        finally:
            sys.setprofile(None)
        return seen[0]

    # the window call itself (and its horizon check) is not per event
    return (calls(events) - calls(0)) / events


def cyclic_garbage_honest_run() -> int:
    """Objects the cyclic collector finds after one honest call of each
    harness entry point, run with the collector disabled.  A count, so a
    gate on it cannot flake: every entry point closes its deployment, so
    reference counting alone frees a finished run."""
    stream = StreamingSpec(epochs=3, batch_size=3, warmup=12,
                           arrival=ArrivalSpec(rate_tps=4.0,
                                               transaction_bytes=32))
    runs = (
        lambda: run_consensus("honeybadger-sc", Scenario.single_hop(4),
                              seed=1004),
        lambda: run_multihop_consensus("honeybadger-sc",
                                       Scenario.multi_hop(2, 4), seed=1004),
        lambda: run_broadcast_experiment("rbc", parallelism=2, seed=1004),
        lambda: run_aba_experiment("sc", parallel_instances=2, seed=1004),
        lambda: run_streaming_consensus("honeybadger-sc",
                                        Scenario.single_hop(4), stream,
                                        seed=1004),
    )
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = 0
        for run in runs:
            run()
            found += gc.collect()
        return found
    finally:
        if enabled:
            gc.enable()


def _bytes_live_at_close(patterns: tuple[str, ...],
                         runs: tuple[Callable[[], object], ...]) -> int:
    """Bytes allocated in files matching ``patterns`` still live when each
    of ``runs``'s deployments closes (read just before it does), summed."""
    reads = []
    close = Deployment.close
    filters = [tracemalloc.Filter(True, pattern) for pattern in patterns]

    def read_then_close(deployment) -> None:
        snapshot = tracemalloc.take_snapshot().filter_traces(filters)
        reads.append(sum(stat.size for stat in snapshot.statistics("filename")))
        close(deployment)

    Deployment.close = read_then_close
    tracemalloc.start()
    try:
        for run in runs:
            run()
    finally:
        tracemalloc.stop()
        Deployment.close = close
    return sum(reads)


def component_state_bytes_n32(seed: int = 3201) -> int:
    """Bytes allocated in ``repro/components/`` still live at the end of one
    n=32 shared-coin ABA run plus one n=32 RBC run (12 parallel instances
    each, as in the ``components-n32`` ledger workload), read just before
    each deployment closes.  A count, not a rate: a set of voter ids per
    tally key put back in place of a bitmask multiplies it."""
    scenario = Scenario.scale_single_hop(32)
    return _bytes_live_at_close(("*/repro/components/*",), (
        lambda: run_aba_experiment("sc", parallel_instances=12, num_nodes=32,
                                   seed=seed, scenario=scenario),
        lambda: run_broadcast_experiment("rbc", parallelism=12, num_nodes=32,
                                         seed=seed, scenario=scenario)))


def held_state_bytes_8x8(seed: int = 8801) -> int:
    """Bytes allocated in ``repro/core/``, ``repro/components/`` and
    ``repro/protocols/`` still live when one ``multihop-8x8``-shaped run
    (HoneyBadger-SC on 8 clusters of 8) closes its deployment: mostly the
    messages the transports hold for NACK repair, their payloads and the
    instance keys.  A count: a per-instance ``__dict__`` put back on
    ``ComponentMessage``, or a vote payload dict allocated per send, grows
    it."""
    return _bytes_live_at_close(
        ("*/repro/core/*", "*/repro/components/*", "*/repro/protocols/*"),
        (lambda: run_multihop_consensus(
            "honeybadger-sc", Scenario.scale_multi_hop(8, 8), seed=seed),))


def stream_poll_bodies(seed: int = 4001) -> int:
    """Bodies of ``StreamingRun._poll`` run in one ``stream-n4``-shaped
    stream (HoneyBadger-SC, n=4, 40 epochs), counted as the ``Epoch.feed``
    calls they make: one per in-flight epoch per pass.  The predicate runs
    after every event; its body only after a decision, a locked common
    subset or a crash.  A count: a poll that re-reads its epochs after
    every event again multiplies it."""
    calls = [0]
    feed = Epoch.feed

    def counting(epoch) -> None:
        calls[0] += 1
        feed(epoch)

    spec = StreamingSpec(epochs=40, batch_size=4, warmup=64,
                         arrival=ArrivalSpec(rate_tps=2.0, transaction_bytes=32,
                                             max_mempool=1024))
    Epoch.feed = counting
    try:
        run_streaming_consensus("honeybadger-sc", Scenario.single_hop(4),
                                spec, seed=seed)
    finally:
        Epoch.feed = feed
    return calls[0]


# ----------------------------------------------------------------------- driver
def run_benchmarks(quick: bool = False) -> dict:
    """Run every micro-benchmark; returns the JSON-ready document."""
    budget = 0.15 if quick else 1.0
    results: dict[str, float] = {}
    for section in (bench_group_exp, bench_schnorr, bench_threshold_shares,
                    bench_erasure, bench_simulator, bench_dealer,
                    bench_streaming, bench_ingress, bench_scenario,
                    bench_shard):
        results.update(section(budget))
    forced = witnesses_forced_on_minted_loops()
    powm_calls = backend_powm_honest_epoch()
    table_pows = table_pow_honest_epoch()
    garbage = cyclic_garbage_honest_run()
    component_bytes = component_state_bytes_n32()
    held_bytes = held_state_bytes_8x8()
    poll_bodies = stream_poll_bodies()
    results.update(bench_share_combine(budget))
    speedups = dealer_speedups(results)
    speedups |= shard_speedups(results)
    speedups |= {
        "group_exp_fixed_base_vs_pow":
            results["group_exp_fixed_base"] / results["group_exp_pow"],
        "group_exp_known_base_vs_pow":
            results["group_exp_known_base"] /
            results["group_exp_known_base_pow"],
        "share_verify_single_vs_seed":
            results["share_verify_single"] / results["share_verify_seed"],
        "schnorr_verify_minted_vs_long_road":
            results["schnorr_verify_minted"] / results["schnorr_verify"],
        "share_verify_minted_vs_long_road":
            results["share_verify_minted"] / results["share_verify_single"],
        "schnorr_sign_verify_minted_vs_long_road":
            results["schnorr_sign_verify_minted"] /
            results["schnorr_sign_verify_long_road"],
        "share_sign_verify_minted_vs_long_road":
            results["share_sign_verify_minted"] /
            results["share_sign_verify_long_road"],
        "erasure_decode_vs_seed":
            results["erasure_decode_k32"] / results["erasure_decode_seed_k32"],
        "sim_events_vs_seed":
            results["sim_events"] / results["sim_events_seed"],
        "sim_events_vs_event_objects":
            results["sim_events"] / results["sim_events_event_objects"],
    }
    return {
        "schema": "repro-hotpath-bench/v1",
        "python": platform.python_version(),
        "quick": quick,
        "config": {
            "dealer_num_nodes": DEALER_NUM_NODES,
            "streaming_epochs": STREAM_EPOCHS,
            "ingress_offered_tps": OFFERED_TPS,
            "scenario_pack": SCENARIO_PACK,
            "num_parties": NUM_PARTIES,
            "threshold": THRESHOLD,
            "erasure_k": ERASURE_K,
            "erasure_n": ERASURE_N,
            "erasure_payload_bytes": ERASURE_PAYLOAD,
            "fanout_nodes": FANOUT_NODES,
            "fanout_frames": FANOUT_FRAMES,
            "shard_workers": shard_workers(),
            "backend": crypto_backend.backend_info(),
        },
        "results_ops_per_sec": {key: round(value, 2)
                                for key, value in results.items()},
        "counts": {
            "witnesses_forced_minted": forced,
            "backend_powm_honest_epoch": powm_calls,
            "table_pow_honest_epoch": table_pows,
            "cyclic_garbage_honest_run": garbage,
            "component_state_bytes_n32": component_bytes,
            "held_state_bytes_8x8": held_bytes,
            "stream_poll_bodies": poll_bodies,
            "sim_kernel_calls_per_event": kernel_calls_per_event(),
            "sim_kernel_calls_per_event_event_objects":
                kernel_calls_per_event(ReferenceSimulator),
        },
        "speedups": {key: round(value, 2) for key, value in speedups.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="short timing budgets (noisier, for smoke tests)")
    parser.add_argument("--out", default=DEFAULT_OUTPUT,
                        help="where to write the JSON (default: repo root)")
    args = parser.parse_args(argv)
    document = run_benchmarks(quick=args.quick)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
