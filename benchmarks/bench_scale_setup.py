"""Micro-benchmark of large-n setup cost: the crypto-domain dealer cache.

Dealing one consensus domain runs four Shamir dealings plus a keyring --
O(n^2) share evaluations and n fixed-base exponentiations per scheme.  The
process cache :class:`repro.testbed.dealer_cache.DealerCache` amortises that
across the repeated ``(num_nodes, seed)`` cells of campaign matrices and
experiment sweeps; this benchmark records the fresh-deal rate, the cache-hit
rate and their ratio into ``BENCH_hotpath.json`` (merged, so the other
hot-path metrics survive), and ``scripts/perf_smoke.py`` gates on the
speedup staying >= 5x.

Run directly (merges into the JSON)::

    PYTHONPATH=src python benchmarks/bench_scale_setup.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.testbed.dealer_cache import (  # noqa: E402
    ALL_SCHEMES,
    DealerCache,
    deal_scheme,
)

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_hotpath.json")

#: the domain size the dealer benchmark exercises (a mid-size scale cell)
DEALER_NUM_NODES = 64


def _rate(operation: Callable[[], int], min_seconds: float) -> float:
    """Run ``operation`` (returns ops performed) for ``min_seconds``; ops/s."""
    total_ops = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_seconds:
        total_ops += operation()
        elapsed = time.perf_counter() - start
    return total_ops / elapsed


def bench_dealer(budget: float) -> dict[str, float]:
    """Fresh-deal vs. cache-hit rates for a full n=64 crypto domain."""
    seeds = iter(range(10_000_000))

    def fresh_op() -> int:
        # A fresh deal of every scheme, bypassing the cache; a new
        # seed each iteration so memoised group tables are the only warmth
        # (matching what a cold harness run would pay per domain).
        seed = next(seeds)
        for scheme in ALL_SCHEMES:
            deal_scheme(scheme, DEALER_NUM_NODES, seed)
        return 1

    warm = DealerCache()
    warm.domain(DEALER_NUM_NODES, 0)  # populate the process tier off the clock

    def cached_op() -> int:
        domain = warm.domain(DEALER_NUM_NODES, 0)
        assert domain.threshold_sig is not None
        return 1

    return {
        "dealer_domain_fresh_n64": _rate(fresh_op, max(budget, 0.3)),
        "dealer_domain_cached_n64": _rate(cached_op, budget),
    }


def dealer_speedups(results: dict[str, float]) -> dict[str, float]:
    """The speedup keys derived from :func:`bench_dealer` results."""
    return {
        "dealer_cache_vs_fresh":
            results["dealer_domain_cached_n64"]
            / results["dealer_domain_fresh_n64"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="short timing budgets (noisier, for smoke tests)")
    parser.add_argument("--out", default=DEFAULT_OUTPUT,
                        help="BENCH_hotpath.json to merge into")
    args = parser.parse_args(argv)

    budget = 0.15 if args.quick else 1.0
    results = bench_dealer(budget)
    speedups = dealer_speedups(results)

    document: dict = {}
    if os.path.exists(args.out):
        try:
            with open(args.out, encoding="utf-8") as handle:
                document = json.load(handle)
        except ValueError:
            document = {}
    document.setdefault("results_ops_per_sec", {}).update(
        {key: round(value, 2) for key, value in results.items()})
    document.setdefault("speedups", {}).update(
        {key: round(value, 2) for key, value in speedups.items()})
    document.setdefault("config", {})["dealer_num_nodes"] = DEALER_NUM_NODES
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({"results_ops_per_sec": results, "speedups": speedups},
                     indent=2, sort_keys=True))
    print(f"\nmerged into {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
