#!/usr/bin/env python3
"""Quickstart: one epoch of wireless HoneyBadgerBFT on the simulated testbed.

Runs the ConsensusBatcher-batched, shared-coin HoneyBadgerBFT on a four-node
single-hop LoRa-class network, then repeats the run with the unbatched
baseline transport so the improvement the paper reports is visible
immediately.

Usage::

    python examples/quickstart.py [--protocol beat] [--seed 7]
"""

import argparse

from repro.protocols.base import PROTOCOL_NAMES
from repro.testbed.harness import run_consensus
from repro.testbed.reporting import format_table, improvement_percent, increase_percent
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default="honeybadger-sc",
                        choices=sorted(PROTOCOL_NAMES))
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    scenario = Scenario.single_hop(args.nodes)
    print(f"Running {args.protocol} on a {args.nodes}-node single-hop wireless "
          f"network ({scenario.radio.name}, {scenario.ec_curve} + "
          f"{scenario.threshold_curve})...\n")

    workload = WorkloadSpec(batch_size=args.batch_size)
    batched = run_consensus(args.protocol, scenario, batched=True,
                            seed=args.seed, workload_spec=workload)
    baseline = run_consensus(args.protocol, scenario, batched=False,
                             seed=args.seed, workload_spec=workload)

    rows = []
    for label, result in (("ConsensusBatcher", batched), ("baseline", baseline)):
        rows.append([label,
                     "yes" if result.decided else "no",
                     round(result.latency_s, 2),
                     round(result.throughput_tpm, 1),
                     result.committed_transactions,
                     result.channel_accesses,
                     result.collisions])
    print(format_table(
        ["transport", "decided", "latency s", "TPM", "committed tx",
         "channel accesses", "collisions"],
        rows, title=f"{args.protocol} (seed {args.seed})"))

    if batched.decided and baseline.decided:
        print(f"\nConsensusBatcher reduces latency by "
              f"{improvement_percent(baseline.latency_s, batched.latency_s):.0f}% "
              f"and increases throughput by "
              f"{increase_percent(baseline.throughput_tpm, batched.throughput_tpm):.0f}% "
              f"on this run (paper, single-hop: 52-69% / 50-70%).")
    print(f"\nAgreed block digest: {batched.block_digest[:16]}... "
          f"({batched.committed_transactions} transactions)")


if __name__ == "__main__":
    main()
