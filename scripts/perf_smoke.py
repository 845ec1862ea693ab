#!/usr/bin/env python
"""Perf smoke test: fail loudly if a hot path regressed.

Two modes with distinct gates:

**Quick mode (default, well under 60 seconds)** runs the micro-benchmarks
with short budgets and checks *same-run ratio invariants* only:

* ``Group.exp`` on a base made here as a power of ``g`` >= 3x builtin
  ``pow`` (its known log answers it from g's table -- a refactor that loses
  the log sends it back to ``pow`` and lands at ~1x), and zero backend
  ``powm`` calls on an honest one-epoch run of every protocol (a count, so
  it cannot flake: a base the honest path raises without a known log fails
  it);
* verifying a signature or share minted in this process >= 10x verifying an
  unstamped copy (a refactor that loses the provenance stamp lands at ~1x
  and would otherwise quietly cost a third of every run);
* signing then verifying by the stamp >= 3x signing, computing the witness
  and verifying it the long way, for a signature and for a share, and no
  witness computed at all on a sign -> stamp-verify loop (lazy witnesses: a
  field read placed before a stamp comparison lands at ~1x and forces every
  witness, quietly costing a quarter of ``fig13a-n4``);
* the event kernel makes at most one Python-level call per scheduled and
  fired event (``schedule``; the kernel that built an ``Event`` object per
  callback made three).  A count, so it cannot flake: a ``_push`` helper or
  an event class with an ``__init__`` put back on every event fails it,
  where a same-run rate ratio against the old kernel read anywhere from
  1.07x to 1.7x across quick runs on one 2-core VM;
* erasure decode >= 5x the seed implementation (k=32);
* a dealer-cache hit >= 5x a fresh n=64 domain deal.

Quick-mode timings are never compared against the recorded baseline:
``BENCH_hotpath.json`` is recorded with full budgets, and comparing a
short-budget run against it used to flag phantom regressions whenever the
quick run landed slow (the warmup fraction dominates sub-second budgets).

**Full mode (``--full``, a few minutes)** reruns with the same budgets the
baseline was recorded with, so absolute comparisons are meaningful.  It
applies every quick-mode invariant plus

* no gated metric more than 2x slower than ``BENCH_hotpath.json``, and
* the sharded-simulator gates: a machine-aware ``shard_speedup`` floor
  (overhead bound on one core, same-league floor with real cores) plus a
  4x4 bit-identity smoke across ``shard_workers`` 1 vs 2.

``frame_fanout_deliveries`` (one sender storming 31 receivers through the
real channel / node / transport / router) rides in the gated set beside
``sim_events``: a per-delivery closure, property or re-derived label on the
receive path multiplies by the fan-out and fails here before it reaches the
ledger.

The streaming gates (``streaming_tx_per_sec``,
``scenario_stream_tx_per_sec``, ``ingress_stream_tx_per_sec``) ride in the
gated set so a slowdown of the multi-epoch path (mempool, pipelining
bookkeeping, checkpoint/GC), the scenario controller or the client-facing
ingress (gateway submits, DRR takes) fails like any crypto or simulator
hot-path regression.

Usage::

    python scripts/perf_smoke.py [--full] [--baseline PATH]

The baseline is only read, never written; refresh it by running
``python benchmarks/bench_hotpath_micro.py`` after an intentional change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_hotpath_micro  # noqa: E402

# Metrics gated against the baseline in full mode.  Full-mode timings still
# jitter, so the regression threshold is a generous 2x; real regressions on
# these paths (a dropped cache, an accidental O(k^3) decode) overshoot it.
GATED_METRICS = (
    "group_exp_fixed_base",
    "group_exp_known_base",
    "schnorr_sign",
    "schnorr_verify",
    "share_sign",
    "share_verify_single",
    "share_combine",
    "share_combine_n4_t2",
    "erasure_encode_k32",
    "erasure_decode_k32",
    "sim_events",
    "sim_timer_churn",
    "frame_fanout_deliveries",
    "dealer_domain_cached_n64",
    "streaming_tx_per_sec",
    "scenario_stream_tx_per_sec",
    "ingress_stream_tx_per_sec",
    "shard_multihop_8x8_classic",
    "shard_multihop_8x8_sharded",
)
MAX_REGRESSION = 2.0

# Same-run ratio invariants (both modes, baseline-independent).
MIN_KNOWN_BASE_VS_POW = 3.0
MAX_BACKEND_POWM_HONEST_EPOCH = 0
MIN_MINTED_VS_LONG_ROAD = 10.0
MIN_LAZY_SIGN_VERIFY_VS_FORCED = 3.0
MAX_KERNEL_CALLS_PER_EVENT = 1
MIN_DECODE_VS_SEED = 5.0
MIN_DEALER_CACHE = 5.0

# Sharded-simulator floors (full mode), machine-aware: on a single core the
# forked workers cannot overlap, so ``shard_speedup`` measures pure
# synchronization overhead and only a catastrophic regression (a barrier
# livelock, per-window replays) pushes it below the overhead bound.  With
# real cores the multi-process run must at least stay in the same league as
# the classic heap -- actual speedup depends on core count and grid size, so
# the floor guards against pathology rather than asserting a win.
MIN_SHARD_SPEEDUP_SINGLE_CORE = 0.4
MIN_SHARD_SPEEDUP_MULTI_CORE = 0.7


def _check_ratio_invariants(document: dict, failures: list[str]) -> None:
    """Same-run speedup gates that hold in quick and full mode alike."""
    speedups = document["speedups"]

    if speedups["group_exp_known_base_vs_pow"] < MIN_KNOWN_BASE_VS_POW:
        failures.append(
            f"Group.exp on a known base only "
            f"{speedups['group_exp_known_base_vs_pow']:.2f}x builtin pow "
            f"(need >= {MIN_KNOWN_BASE_VS_POW}x): powers of g are not "
            f"answered through their known logs")
    powm_calls = document["counts"]["backend_powm_honest_epoch"]
    if powm_calls > MAX_BACKEND_POWM_HONEST_EPOCH:
        failures.append(
            f"{powm_calls} backend powm calls on honest one-epoch runs (need "
            f"{MAX_BACKEND_POWM_HONEST_EPOCH}): a base the honest path raises "
            f"has no known log")
    for name in ("schnorr_verify_minted_vs_long_road",
                 "share_verify_minted_vs_long_road"):
        if speedups[name] < MIN_MINTED_VS_LONG_ROAD:
            failures.append(
                f"{name} only {speedups[name]:.2f}x (need >= "
                f"{MIN_MINTED_VS_LONG_ROAD}x): artefacts minted in this "
                f"process are being re-verified -- the provenance stamp is "
                f"lost between the maker and the verifier")
    for name in ("schnorr_sign_verify_minted_vs_long_road",
                 "share_sign_verify_minted_vs_long_road"):
        if speedups[name] < MIN_LAZY_SIGN_VERIFY_VS_FORCED:
            failures.append(
                f"{name} only {speedups[name]:.2f}x (need >= "
                f"{MIN_LAZY_SIGN_VERIFY_VS_FORCED}x): minted witnesses are "
                f"being computed on the honest path")
    forced = document["counts"]["witnesses_forced_minted"]
    if forced:
        failures.append(
            f"{forced} witnesses computed on a sign -> stamp-verify loop "
            f"(need 0): something reads a signature or proof field before "
            f"the stamp comparison")
    kernel_calls = document["counts"]["sim_kernel_calls_per_event"]
    if kernel_calls > MAX_KERNEL_CALLS_PER_EVENT:
        failures.append(
            f"the event kernel makes {kernel_calls:.2f} Python-level calls "
            f"per event (need <= {MAX_KERNEL_CALLS_PER_EVENT}): something is "
            f"built or called again for every scheduled event")
    if speedups["erasure_decode_vs_seed"] < MIN_DECODE_VS_SEED:
        failures.append(
            f"erasure decode only {speedups['erasure_decode_vs_seed']:.2f}x "
            f"the seed implementation (need >= {MIN_DECODE_VS_SEED}x)")
    if speedups["dealer_cache_vs_fresh"] < MIN_DEALER_CACHE:
        failures.append(
            f"dealer-cache hit only {speedups['dealer_cache_vs_fresh']:.2f}x "
            f"a fresh n=64 domain deal (need >= {MIN_DEALER_CACHE}x)")


def _check_full_mode_gates(document: dict, baseline_path: str,
                           failures: list[str]) -> None:
    """Absolute gates: regressions against the recorded baseline."""
    current = document["results_ops_per_sec"]

    if not os.path.exists(baseline_path):
        failures.append(
            f"no baseline at {baseline_path}; run "
            f"'python benchmarks/bench_hotpath_micro.py' to record one")
        baseline_results = {}
    else:
        with open(baseline_path, encoding="utf-8") as handle:
            baseline_results = json.load(handle).get("results_ops_per_sec", {})

    print(f"{'metric':<32}{'baseline':>14}{'current':>14}{'ratio':>8}")
    for metric in GATED_METRICS:
        now = current.get(metric)
        then = baseline_results.get(metric)
        if now is None or then is None or then <= 0:
            print(f"{metric:<32}{'-':>14}{now or '-':>14}{'-':>8}")
            continue
        ratio = now / then
        print(f"{metric:<32}{then:>14.1f}{now:>14.1f}{ratio:>7.2f}x")
        if ratio < 1.0 / MAX_REGRESSION:
            failures.append(
                f"{metric} regressed {1.0 / ratio:.2f}x "
                f"({then:.1f} -> {now:.1f} ops/s, allowed {MAX_REGRESSION}x)")


def _check_shard_gates(document: dict, failures: list[str]) -> None:
    """Full-mode sharded-simulator gates: speedup floor + bit-identity."""
    import dataclasses

    from repro.testbed.harness import run_multihop_consensus
    from repro.testbed.scenarios import Scenario

    speedup = document["speedups"].get("shard_speedup")
    single_core = (os.cpu_count() or 1) <= 1
    floor = (MIN_SHARD_SPEEDUP_SINGLE_CORE if single_core
             else MIN_SHARD_SPEEDUP_MULTI_CORE)
    if speedup is None:
        failures.append("shard_speedup missing from benchmark results")
    elif speedup < floor:
        failures.append(
            f"shard_speedup at {speedup:.2f}x is below the "
            f"{'single' if single_core else 'multi'}-core floor {floor}x")

    # Bit-identity smoke: a sharded 4x4 run must not depend on worker count.
    scenario = Scenario.scale_multi_hop(4, 4)
    runs = [dataclasses.asdict(
        run_multihop_consensus("honeybadger-sc", scenario, seed=0, shards=4,
                               shard_workers=workers))
        for workers in (1, 2)]
    if runs[0] != runs[1]:
        failures.append("sharded 4x4 run is not bit-identical across "
                        "shard_workers 1 vs 2")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline",
                        default=bench_hotpath_micro.DEFAULT_OUTPUT,
                        help="recorded BENCH_hotpath.json to compare against")
    parser.add_argument("--full", action="store_true",
                        help="run full budgets and apply the absolute gates "
                             "(baseline comparison, shard gates); the "
                             "default quick mode checks same-run ratio "
                             "invariants only")
    args = parser.parse_args(argv)

    document = bench_hotpath_micro.run_benchmarks(quick=not args.full)
    failures: list[str] = []

    _check_ratio_invariants(document, failures)
    if args.full:
        _check_full_mode_gates(document, args.baseline, failures)
        _check_shard_gates(document, failures)
    else:
        print("quick mode: same-run ratio invariants only "
              "(use --full for baseline and shard gates)")
        for name, value in sorted(document["speedups"].items()):
            print(f"  {name:<38}{value:>8.2f}x")

    if failures:
        print("\nPERF SMOKE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
