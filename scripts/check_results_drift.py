#!/usr/bin/env python
"""Fail when freshly run experiment sections differ from ``RESULTS.json``.

The ``*-quick`` CI jobs each re-run one or two registered experiments
(``scripts/run_experiments.py --quick --only ID --json FRESH``) and then
check that the cells they produced are the ones committed in the canonical
artifact, so a change that moves a number cannot land without regenerating
``RESULTS.{json,md}``::

    python scripts/check_results_drift.py /tmp/load.json load-sweep

Exits non-zero naming every spec id that drifted or is missing.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cells_by_spec(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return {entry["spec"]["spec_id"]: entry["cells"]
                for entry in json.load(handle)["experiments"]}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: check_results_drift.py FRESH.json SPEC_ID...",
              file=sys.stderr)
        return 2
    fresh = _cells_by_spec(argv[0])
    canon = _cells_by_spec(os.path.join(ROOT, "RESULTS.json"))
    drifted = [spec_id for spec_id in argv[1:]
               if spec_id not in fresh or fresh[spec_id] != canon.get(spec_id)]
    if drifted:
        print(f"{', '.join(drifted)} drifted; regenerate RESULTS with "
              f"run_experiments.py --quick", file=sys.stderr)
        return 1
    print(f"RESULTS sections match: {', '.join(argv[1:])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
