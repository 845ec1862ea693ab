#!/usr/bin/env python3
"""Multi-hop consensus on the sharded simulator, past the classic ceiling.

Runs the two-phase construction (local consensus per cluster, global
consensus among leaders) with one event loop per cluster under conservative
synchronization: shards only advance to the proven-safe horizon
``min(neighbour bounds) + lookahead`` and exchange serialized backbone
packets at barrier windows.  The merged result is bit-identical for any
``--workers`` count, so the demo prints the per-shard event split (the
quantity sharding actually balances) next to the familiar latency table.

Usage::

    python examples/sharded_scale.py [--clusters 8] [--cluster-size 8] \
        [--workers 2] [--protocol honeybadger-sc] [--seed 0]

Try ``--clusters 16 --cluster-size 16`` (a ~30s run) or 32x32 (a few
minutes, ~1.6M events) -- grids the single-heap simulator was previously
impractical for.
"""

import argparse
import time

from repro.testbed.reporting import format_table
from repro.testbed.scenarios import Scenario
from repro.testbed.sharding import run_sharded_multihop_consensus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clusters", type=int, default=8)
    parser.add_argument("--cluster-size", type=int, default=8)
    parser.add_argument("--shards", type=int, default=0,
                        help="shard count (default: one per cluster)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes executing the shards")
    parser.add_argument("--protocol", default="honeybadger-sc")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    shards = args.shards or args.clusters
    scenario = Scenario.scale_multi_hop(args.clusters, args.cluster_size)
    print(f"{scenario.num_nodes} nodes in {args.clusters} clusters; "
          f"{shards} shards on {args.workers} worker(s); "
          f"local + global consensus: {args.protocol}.\n")

    shard_stats: list = []
    start = time.perf_counter()
    result = run_sharded_multihop_consensus(
        args.protocol, scenario, shards=shards, shard_workers=args.workers,
        seed=args.seed, shard_stats=shard_stats)
    wall = time.perf_counter() - start
    if not result.decided:
        print("Global consensus did not complete within the scenario timeout.")
        return

    total_events = max(result.sim_events, 1)
    rows = [[f"shard {stats['shard']}",
             f"{stats['clusters'][0]}..{stats['clusters'][-1]}",
             stats["events"],
             f"{100.0 * stats['events'] / total_events:.1f}%"]
            for stats in shard_stats]
    print(format_table(["shard", "clusters", "events", "share"], rows,
                       title="Per-shard event split (what sharding balances)"))
    print()
    slowest = max(result.local_latencies_s.values())
    print(format_table(
        ["metric", "value"],
        [["global latency s", round(result.latency_s, 3)],
         ["slowest local latency s", round(slowest, 3)],
         ["committed transactions", result.committed_transactions],
         ["simulated events", result.sim_events],
         ["bytes sent", result.bytes_sent],
         ["collisions", result.collisions],
         ["wall clock s", round(wall, 1)]],
        title="Merged run (bit-identical for any --workers)"))
    print("\nDeterminism contract: rerun with a different --workers value "
          "and every number above reproduces exactly; only the wall clock "
          "changes.")


if __name__ == "__main__":
    main()
