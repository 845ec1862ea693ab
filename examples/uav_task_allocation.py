#!/usr/bin/env python3
"""Dynamic task allocation for a UAV/robot swarm over asynchronous wireless BFT.

The paper motivates asynchronous wireless BFT with applications that must
agree before acting: dynamic task allocation, collective map construction,
search and rescue.  This example models a four-robot swarm that must agree on
a common task list even though one robot is Byzantine (it crashes mid-run):

1. every robot proposes the tasks it has discovered (a ``task-allocation``
   flavoured workload);
2. the swarm runs wireless BEAT (the paper's best performer) over the shared
   LoRa-class channel;
3. the agreed block is interpreted as the global task list and tasks are
   assigned round-robin to the surviving robots.

Usage::

    python examples/uav_task_allocation.py [--robots 4] [--seed 3]
"""

import argparse

from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import run_consensus
from repro.testbed.reporting import format_table
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import TransactionWorkload, WorkloadSpec


def parse_task(transaction: bytes) -> dict:
    """Decode one task transaction produced by the task-allocation workload.

    Transactions are padded to a fixed size with random filler bytes after a
    ``|#`` terminator; only the structured prefix is parsed (the filler can
    contain ``=`` bytes and invalid UTF-8).
    """
    structured, _, _filler = transaction.partition(b"|#")
    fields = {}
    for part in structured.split(b"|"):
        if b"=" not in part:
            continue
        key, _, value = part.partition(b"=")
        fields[key.decode(errors="replace")] = value.decode(errors="replace")
    return fields


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--robots", type=int, default=4)
    parser.add_argument("--tasks-per-robot", type=int, default=4)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    byzantine = ByzantineSpec(assignments={args.robots - 1: "late-crash"},
                              late_crash_at_s=10.0)
    scenario = Scenario.single_hop(args.robots).with_byzantine(byzantine)
    print(f"{args.robots} robots, robot {args.robots - 1} crashes 10 s into the "
          f"mission; consensus: wireless BEAT (ConsensusBatcher).\n")

    spec = WorkloadSpec(batch_size=args.tasks_per_robot, transaction_bytes=96,
                        flavor="task-allocation")
    result = run_consensus("beat", scenario, batched=True, seed=args.seed,
                           workload_spec=spec)

    if not result.decided:
        print("Consensus did not complete within the scenario timeout.")
        return

    workload = TransactionWorkload(spec, seed=args.seed)
    # reconstruct the agreed task list from the decided block
    agreed = []
    for robot in range(args.robots):
        for transaction in workload.batch_for(robot):
            agreed.append(parse_task(transaction))

    survivors = [robot for robot in range(args.robots)
                 if not byzantine.is_byzantine(robot)]
    rows = []
    for index, task in enumerate(sorted(agreed, key=lambda t: t.get("task_id", ""))):
        assignee = survivors[index % len(survivors)]
        rows.append([task.get("task_id", "?"), task.get("robot", "?"),
                     f"({task.get('x', '?')}, {task.get('y', '?')})",
                     task.get("priority", "?"), f"robot {assignee}"])

    print(format_table(
        ["task", "discovered by", "location", "priority", "assigned to"],
        rows[:12], title="Agreed task allocation (first 12 tasks)"))
    print(f"\nConsensus latency: {result.latency_s:.1f} s simulated "
          f"({result.committed_transactions} task records committed, "
          f"throughput {result.throughput_tpm:.0f} TPM).")
    print("All surviving robots hold the identical task list "
          f"(block digest {result.block_digest[:16]}...).")


if __name__ == "__main__":
    main()
