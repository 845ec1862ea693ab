#!/usr/bin/env python3
"""Scenario replay: stream a protocol through a time-varying network pack.

Loads one of the shipped scenario packs (``repro.testbed.scenario_packs``)
-- a declarative timeline of network phases that degrade and heal the
wireless channel on the virtual-time axis -- and drives a multi-epoch
HoneyBadger stream through it, printing the per-phase timeline: committed
throughput, median epoch latency and adversary drops per phase, plus every
invariant verdict of the run (safety, liveness, ledger continuity and
recovery after each heal).

Usage::

    python examples/scenario_replay.py [--pack burst-loss] [--protocol beat]
    python examples/scenario_replay.py --list
"""

import argparse

from repro.protocols.base import PROTOCOL_NAMES
from repro.testbed.invariants import RunObserver, check_all
from repro.testbed.reporting import format_table
from repro.testbed.scenario_packs import available_packs, load_pack
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pack", default="intermittent-connectivity",
                        choices=available_packs())
    parser.add_argument("--protocol", default="honeybadger-sc",
                        choices=sorted(PROTOCOL_NAMES))
    parser.add_argument("--epochs", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--list", action="store_true",
                        help="list the shipped packs and exit")
    args = parser.parse_args()

    if args.list:
        for name in available_packs():
            pack = load_pack(name)
            print(f"{name}: {len(pack.phases)} phases, "
                  f"{pack.total_duration_s:.0f}s -- {pack.description}")
        return

    pack = load_pack(args.pack)
    print(f"Streaming {args.epochs} epochs of {args.protocol} through pack "
          f"'{pack.name}' ({len(pack.phases)} phases, "
          f"{pack.total_duration_s:.0f}s of virtual time)...\n")

    scenario = Scenario.single_hop(4).replace(timeout_s=3000.0)
    spec = StreamingSpec(
        epochs=args.epochs, batch_size=4, warmup=64,
        arrival=ArrivalSpec(rate_tps=1.0, transaction_bytes=32,
                            max_mempool=512))
    observer = RunObserver()
    result = run_streaming_consensus(args.protocol, scenario, spec,
                                     seed=args.seed, observer=observer,
                                     pack=pack)

    rows = []
    for record in result.phases:
        end = "end" if record.end_s == float("inf") \
            else f"{record.end_s:.0f}"
        rows.append([record.index, record.name,
                     f"{record.start_s:.0f}-{end}",
                     "degraded" if record.degraded else "nominal",
                     record.epochs, record.committed_transactions,
                     round(record.throughput_tps, 2),
                     round(record.p50_latency_s, 2),
                     record.adversary_drops])
    print(format_table(
        ["#", "phase", "window s", "state", "epochs", "committed tx",
         "tput tx/s", "p50 epoch s", "drops"],
        rows, title=f"{args.protocol} x {pack.name} (seed {args.seed})"))

    print(f"\nStream {'decided' if result.decided else 'STALLED'}: "
          f"{result.epochs_completed}/{args.epochs} epochs, "
          f"{result.committed_transactions} transactions in "
          f"{result.duration_s:.0f}s of virtual time.")
    for verdict in check_all(observer, result, scenario.timeout_s):
        status = "ok" if verdict.ok else "FAILED"
        print(f"  invariant {verdict.name}: {status} -- {verdict.detail}")
    print(f"\nLedger digest: {result.ledger_digest[:16]}...")


if __name__ == "__main__":
    main()
