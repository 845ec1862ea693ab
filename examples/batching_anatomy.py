#!/usr/bin/env python3
"""Anatomy of ConsensusBatcher: where the channel accesses go.

Runs the component-level experiments behind Table I and Figs. 11-12 and
prints, for each consensus component, the analytical message overhead per
node next to the channel accesses measured on the simulator -- batched vs.
baseline -- plus the O(N^2) -> O(N) NACK compression.

Usage::

    python examples/batching_anatomy.py [--nodes 4]
"""

import argparse

from repro.core.overhead import MessageOverheadModel
from repro.core.packet import PacketSizer
from repro.testbed.harness import run_aba_experiment, run_broadcast_experiment
from repro.testbed.reporting import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    n = args.nodes

    model = MessageOverheadModel(n)
    rows = []
    experiments = {
        "RBC": lambda batched: run_broadcast_experiment(
            "rbc", parallelism=n, num_nodes=n, batched=batched, seed=args.seed),
        "CBC": lambda batched: run_broadcast_experiment(
            "cbc", parallelism=n, num_nodes=n, batched=batched, seed=args.seed),
        "PRBC": lambda batched: run_broadcast_experiment(
            "prbc", parallelism=n, num_nodes=n, batched=batched, seed=args.seed),
        "Cachin's ABA": lambda batched: run_aba_experiment(
            "sc", parallel_instances=n, num_nodes=n, batched=batched,
            seed=args.seed),
    }
    for component, runner in experiments.items():
        analytical = model.row(component)
        batched = runner(True)
        baseline = runner(False)
        rows.append([component,
                     analytical.wired,
                     analytical.wireless_baseline,
                     analytical.consensus_batcher,
                     round(baseline.channel_accesses_per_node, 1),
                     round(batched.channel_accesses_per_node, 1),
                     round(baseline.latency_s, 1),
                     round(batched.latency_s, 1)])

    print(format_table(
        ["component", "wired (analytic)", "baseline (analytic)",
         "batcher (analytic)", "baseline (measured)", "batcher (measured)",
         "baseline latency s", "batcher latency s"],
        rows,
        title=f"Message overhead per node and latency, N = {n} parallel instances"))

    sizer = PacketSizer(n)
    naive_bits = n * sizer.baseline_nack_bits
    compressed_bits = sizer.batched_nack_bits
    print(f"\nNACK encoding for {n} batched instances: "
          f"{naive_bits} bits naive (O(N^2)) vs "
          f"{compressed_bits} bits compressed (O(N)) -- "
          f"a {naive_bits / compressed_bits:.0f}x saving in packet space.")


if __name__ == "__main__":
    main()
