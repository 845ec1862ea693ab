#!/usr/bin/env python
"""Run registered paper experiments and write RESULTS.json + RESULTS.md.

Executes the experiment registry (`repro.expts`): every figure, table and
ablation of the paper's evaluation as a declarative spec with a parameter
grid, paper-claim checks and an expected-output schema.  Cells run across
multiprocessing workers, every row computed fresh, and the artifacts are
byte-identical regardless of worker count.

Usage::

    PYTHONPATH=src python scripts/run_experiments.py --quick
    PYTHONPATH=src python scripts/run_experiments.py --full --workers 8
    PYTHONPATH=src python scripts/run_experiments.py --list
    PYTHONPATH=src python scripts/run_experiments.py --full --only fig13a
    PYTHONPATH=src python scripts/run_experiments.py \
        --only fig13 --json /tmp/fig13.json --markdown /tmp/fig13.md

``--only`` runs the specs whose id contains its value and prints their
tables; it writes an artifact only to a ``--json`` / ``--markdown`` path
given with it, so a partial run never overwrites the canonical
``RESULTS.json`` / ``RESULTS.md``.

Exits non-zero if any cell violates its output schema or any reproduced
paper claim fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.expts import registry  # noqa: E402
from repro.expts.report import write_artifacts  # noqa: E402
from repro.expts.runner import code_fingerprint, run_experiments  # noqa: E402
from repro.testbed.reporting import format_table  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True,
                      help="per-spec quick subsample of the grids (default)")
    mode.add_argument("--full", action="store_true",
                      help="every cell of every grid")
    parser.add_argument("--only", default="",
                        help="run only specs whose id contains this substring")
    parser.add_argument("--list", action="store_true", dest="list_specs",
                        help="print the registered specs and their cells, then "
                             "exit")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = cpu count, 1 = serial)")
    parser.add_argument("--json", default=None,
                        help="RESULTS.json path (default: repo root; with "
                             "--only, written only when given)")
    parser.add_argument("--markdown", default=None,
                        help="RESULTS.md path (default: repo root; same --only "
                             "rule as --json)")
    args = parser.parse_args(argv)

    quick = not args.full
    specs = registry.select(args.only)
    if not specs:
        print(f"no experiments match {args.only!r}; known: "
              f"{registry.spec_ids()}", file=sys.stderr)
        return 2
    if args.list_specs:
        for spec in specs:
            cells = spec.cells(quick)
            print(f"{spec.spec_id}  [{spec.paper_anchor}]  "
                  f"{len(cells)}/{len(spec.grid)} cells")
            for cell_id in spec.cell_ids(quick):
                print(f"  - {cell_id}")
        return 0
    json_path, markdown_path = args.json, args.markdown
    if not args.only:
        json_path = json_path or os.path.join(_ROOT, "RESULTS.json")
        markdown_path = markdown_path or os.path.join(_ROOT, "RESULTS.md")

    workers = args.workers or os.cpu_count() or 1
    fingerprint = code_fingerprint()
    started = time.time()
    try:
        results = run_experiments(specs, quick=quick, workers=workers)
    except AssertionError as error:
        print(f"paper-claim check failed: {error}", file=sys.stderr)
        return 1
    elapsed = time.time() - started

    write_artifacts(results, quick=quick, fingerprint=fingerprint,
                    json_path=json_path, markdown_path=markdown_path)

    if args.only:
        for result in results:
            print(format_table(
                result.spec.headers, result.rows,
                title=f"{result.spec.paper_anchor}: {result.spec.title}"))
            print()

    rows = []
    for result in results:
        cells = result.spec.cells(quick)
        rows.append([result.spec.spec_id, result.spec.paper_anchor,
                     len(cells), len(result.rows), len(result.spec.checks),
                     "ok"])
    print(format_table(
        ["experiment", "anchor", "cells", "rows", "checks", "status"],
        rows,
        title=f"experiments: {len(results)} specs, "
              f"{'quick' if quick else 'full'} mode, fingerprint {fingerprint}"))
    written = ", ".join(path for path in (json_path, markdown_path) if path)
    print(f"\n{len(results)} experiments green in {elapsed:.1f}s "
          f"({workers} workers) -> {written or 'no artifact written'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
