"""RESULTS.json byte-reproducibility across worker counts.

Uses the cheapest registered specs (crypto tables, no network simulation) so
the property is checked on *real* registry specs -- including the
multiprocessing path, where workers must resolve specs through the registry
-- while staying inside the tier-1 time budget.  The full quick matrix is
exercised by the `results-quick` CI job.
"""

from repro.expts import registry
from repro.expts.report import dump_results_json, results_report
from repro.expts.runner import run_experiments

CHEAP_SPEC_IDS = ("fig10a", "fig10b", "fig10c")


def _artifact(workers):
    specs = [registry.get(spec_id) for spec_id in CHEAP_SPEC_IDS]
    results = run_experiments(specs, quick=True, workers=workers)
    return dump_results_json(
        results_report(results, quick=True, fingerprint="pinned-for-test"))


def test_results_json_identical_across_worker_counts():
    assert _artifact(workers=1) == _artifact(workers=4)


def test_cell_order_matches_grid_order_not_completion_order():
    spec = registry.get("fig10a")
    results = run_experiments([spec], quick=True, workers=4)
    curves = [row[0] for row in results[0].rows]
    assert curves == [params["curve"] for params in spec.cells(quick=True)]
