#!/usr/bin/env python
"""Run a fault-injection campaign matrix and write a ``CAMPAIGN.json`` artifact.

Sweeps the default conformance matrix (protocol x topology x fault model x
workload flavor, see :mod:`repro.testbed.campaign`) through the simulated
wireless testbed, checks the safety/liveness invariants on every cell, and
writes per-cell metrics plus invariant verdicts to the artifact.  Cells run
in parallel worker processes; every cell is a pure function of its
description, so re-running with the same ``--seed`` reproduces the artifact
byte for byte regardless of parallelism.

Usage::

    PYTHONPATH=src python scripts/run_campaign.py --quick
    PYTHONPATH=src python scripts/run_campaign.py --full --parallel 8
    PYTHONPATH=src python scripts/run_campaign.py --list
    PYTHONPATH=src python scripts/run_campaign.py \
        --only 'beat|mh4x4|lossy' --output /tmp/one_cell.json

Exits non-zero if any cell violates an invariant, and prints for each red
cell the command that replays it alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.testbed.campaign import (  # noqa: E402
    campaign_report,
    default_cells,
    run_matrix,
)
from repro.testbed.reporting import format_table  # noqa: E402


def select(cells: list, only: str) -> list:
    """The cells ``--only`` runs: those whose id contains ``only``."""
    return [cell for cell in cells if only in cell.cell_id]


def replay_command(cell_id: str, seed: int, quick: bool) -> str:
    """The command that re-runs one cell of a campaign alone."""
    mode = "" if quick else " --full"
    return (f"PYTHONPATH=src python scripts/run_campaign.py --seed {seed}"
            f"{mode} --only {shlex.quote(cell_id)} --output /tmp/replay.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True,
                      help="bounded matrix, small batches (default)")
    mode.add_argument("--full", action="store_true",
                      help="extended matrix: larger n, extra seeds, full batches")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign base seed (per-cell seeds derive from it)")
    parser.add_argument("--parallel", type=int, default=0,
                        help="worker processes (0 = cpu count)")
    default_output = os.path.join(_ROOT, "CAMPAIGN.json")
    parser.add_argument("--output", default=None,
                        help="artifact path (default: repo-root CAMPAIGN.json; "
                             "required with --only so a filtered run cannot "
                             "clobber the canonical artifact)")
    parser.add_argument("--only", default="",
                        help="run only cells whose id contains this substring")
    parser.add_argument("--list", action="store_true", dest="list_cells",
                        help="print the cell matrix and exit")
    args = parser.parse_args(argv)

    quick = not args.full
    cells = default_cells(quick=quick, base_seed=args.seed)
    if args.only:
        cells = select(cells, args.only)
        if not cells:
            print(f"no cells match {args.only!r}", file=sys.stderr)
            return 2
    if args.list_cells:
        for cell in cells:
            print(cell.cell_id)
        return 0
    if args.only and args.output is None:
        print("--only runs a partial matrix; pass --output so it cannot "
              "clobber the canonical CAMPAIGN.json", file=sys.stderr)
        return 2
    output = args.output or default_output

    workers = args.parallel or os.cpu_count() or 1
    workers = min(workers, len(cells))
    started = time.time()
    outcomes = run_matrix(cells, quick=quick, workers=workers)
    elapsed = time.time() - started

    report = campaign_report(outcomes, base_seed=args.seed, quick=quick)
    if args.only:
        # A filtered artifact must be distinguishable from the full matrix.
        report["campaign"]["only"] = args.only
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = []
    for outcome in sorted(outcomes, key=lambda item: item.cell_id):
        failed = [verdict.name for verdict in outcome.invariants
                  if not verdict.ok]
        rows.append([
            outcome.cell_id,
            "ok" if outcome.ok else "FAIL",
            "yes" if outcome.decided else "no",
            outcome.latency_s if outcome.latency_s is not None else float("nan"),
            outcome.committed_transactions,
            ",".join(failed) or "-",
        ])
    print(format_table(
        ["cell", "verdict", "decided", "latency_s", "committed", "violations"],
        rows, title=f"campaign: {len(outcomes)} cells, seed {args.seed}"))
    bad = [outcome for outcome in outcomes if not outcome.ok]
    print(f"\n{len(outcomes) - len(bad)}/{len(outcomes)} cells green "
          f"in {elapsed:.1f}s ({workers} workers) -> {output}")
    if bad:
        for outcome in bad:
            for verdict in outcome.invariants:
                if not verdict.ok:
                    print(f"  {outcome.cell_id}: {verdict.name}: {verdict.detail}",
                          file=sys.stderr)
            print(f"  replay: {replay_command(outcome.cell_id, args.seed, quick)}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
