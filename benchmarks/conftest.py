"""Shared infrastructure for the figure/table reproduction benchmarks.

``bench_figures.py`` runs every experiment spec registered in
:mod:`repro.expts.paper` as pytest tests.
At the end of the session every table produced through the runner is printed
to the terminal (so it lands in ``bench_output.txt``) and written to
``benchmarks/results/`` -- the same artifact store ``scripts/run_experiments.py``
uses for its per-cell cache.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(__file__)
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_SRC, _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.expts import report  # noqa: E402  (needs the sys.path insertion)

RESULTS_DIR = os.path.join(_HERE, "results")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every reproduced table and persist them under benchmarks/results/."""
    if not report.SESSION_RESULTS:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    terminalreporter.write_sep("=", "paper figure / table reproduction")
    for spec_id, result in report.SESSION_RESULTS.items():
        text = report.render_result_text(result)
        terminalreporter.write_line("")
        terminalreporter.write_line(text)
        with open(os.path.join(RESULTS_DIR, f"{spec_id}.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write(text + "\n")
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(tables also written to {os.path.relpath(RESULTS_DIR)}/; full run: "
        f"PYTHONPATH=src python scripts/run_experiments.py)")
