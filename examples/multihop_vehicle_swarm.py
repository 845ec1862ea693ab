#!/usr/bin/env python3
"""Multi-hop consensus for a smart-car swarm (the paper's Fig. 9b scenario).

Sixteen vehicles are organised into four road-segment clusters; each cluster
shares a short-range channel and elects a leader that joins a global
consensus over the routed backbone (Section V-B's two-phase construction,
akin to sharding).  The example runs wireless HoneyBadgerBFT-SC per cluster
and globally, then prints per-cluster local latency and the global ordering.

Usage::

    python examples/multihop_vehicle_swarm.py [--clusters 4] [--seed 9]
"""

import argparse

from repro.testbed.harness import run_multihop_consensus
from repro.testbed.reporting import format_table
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--cluster-size", type=int, default=4)
    parser.add_argument("--protocol", default="honeybadger-sc")
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    scenario = Scenario.multi_hop(args.clusters, args.cluster_size)
    print(f"{scenario.num_nodes} vehicles in {args.clusters} clusters; "
          f"local + global consensus: {args.protocol} (ConsensusBatcher).\n")

    result = run_multihop_consensus(
        args.protocol, scenario, batched=True, seed=args.seed,
        workload_spec=WorkloadSpec(batch_size=6, transaction_bytes=64))
    if not result.decided:
        print("Global consensus did not complete within the scenario timeout.")
        return

    rows = [[f"cluster {cluster}", round(latency, 2)]
            for cluster, latency in sorted(result.local_latencies_s.items())]
    print(format_table(["cluster", "local consensus latency s"], rows,
                       title="Phase 1: local consensus inside each cluster"))
    print()
    print(format_table(
        ["metric", "value"],
        [["global latency s", round(result.latency_s, 2)],
         ["slowest local latency s", round(result.slowest_local_latency_s, 2)],
         ["committed transactions", result.committed_transactions],
         ["throughput TPM", round(result.throughput_tpm, 1)],
         ["channel accesses (all channels)", result.channel_accesses],
         ["collisions", result.collisions]],
        title="Phase 2: global consensus among the cluster leaders"))
    print("\nNote (matching the paper): multi-hop latency is higher than the "
          "slowest local consensus but far from a naive doubling, because the "
          "global phase overlaps with the stragglers' local phase.")


if __name__ == "__main__":
    main()
