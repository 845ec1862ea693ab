"""Every figure, table and ablation of the paper's evaluation, as pytest tests.

One test module for every spec in the experiment registry
(:mod:`repro.expts`): per spec, one test per grid cell (schema-validated
rows) and one per paper-claim check.  The figure logic itself lives in
:mod:`repro.expts.paper`; select one figure with ``-k`` and its registry
id (the command each ``RESULTS.md`` section prints)::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -k fig13a -q

Results are produced through :func:`repro.expts.runner.run_spec` on the full
grid, so standalone runs share the disk cache of
``scripts/run_experiments.py``, and register their tables with the session
store the conftest renders at exit.
"""

from __future__ import annotations

import pytest

from repro.expts import registry, report
from repro.expts.runner import run_spec

SPECS = registry.all_specs()


def _result(spec):
    """The spec's full-grid result, run once per session."""
    if spec.spec_id not in report.SESSION_RESULTS:
        report.record_session_result(run_spec(spec))
    return report.SESSION_RESULTS[spec.spec_id]


@pytest.mark.parametrize(
    "spec, cell_index",
    [(spec, index) for spec in SPECS for index in range(len(spec.grid))],
    ids=[f"{spec.spec_id}/{cell_id}"
         for spec in SPECS for cell_id in spec.cell_ids()])
def test_cell(spec, cell_index):
    """Every grid cell produces schema-valid rows."""
    rows = _result(spec).cell_rows[cell_index]
    assert rows, f"{spec.spec_id} cell {cell_index} produced no rows"
    spec.validate_rows(rows)


@pytest.mark.parametrize(
    "spec, check",
    [(spec, check) for spec in SPECS for check in spec.checks],
    ids=[f"{spec.spec_id}/{check.__name__}"
         for spec in SPECS for check in spec.checks])
def test_paper_claim(spec, check):
    """The paper claims attached to the spec hold on the full grid."""
    check(_result(spec).rows)
