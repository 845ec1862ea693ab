"""The perf-smoke gate logic (``scripts/perf_smoke.py``) on synthetic
documents, and the committed baseline it gates against.

A full run takes minutes, so these tests call the gate functions directly:
a gated row that goes missing must fail by name rather than take its gate
with it, and ``BENCH_hotpath.json`` must carry every row and count the
gates read.
"""

import importlib.util
import json
import os

import pytest

from repro.protocols.base import PROTOCOL_NAMES

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_perf_smoke():
    spec = importlib.util.spec_from_file_location(
        "perf_smoke_under_test", os.path.join(_ROOT, "scripts", "perf_smoke.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_smoke = _load_perf_smoke()
GATED = perf_smoke.GATED_METRICS


def _document(rates: dict) -> dict:
    return {"results_ops_per_sec": rates}


def _full_mode_failures(run: dict, baseline: dict) -> list[str]:
    failures = []
    perf_smoke._check_full_mode_gates(run, baseline, failures)
    return failures


def test_a_gated_metric_slower_than_the_bound_fails():
    rates = {metric: 100.0 for metric in GATED}
    slow = dict(rates, **{GATED[0]: 100.0 / (perf_smoke.MAX_REGRESSION + 1)})
    failures = _full_mode_failures(_document(slow), _document(rates))
    assert len(failures) == 1 and GATED[0] in failures[0]


@pytest.mark.parametrize("side", ["run", "baseline"])
@pytest.mark.parametrize("metric", [GATED[0], GATED[-1]])
def test_a_missing_gated_metric_fails_by_name(side, metric):
    rates = {name: 100.0 for name in GATED}
    dropped = {name: rate for name, rate in rates.items() if name != metric}
    run, baseline = (dropped, rates) if side == "run" else (rates, dropped)
    failures = _full_mode_failures(_document(run), _document(baseline))
    assert len(failures) == 1 and metric in failures[0], failures


def test_a_missing_baseline_adds_no_failure_per_metric():
    # _load_baseline has already failed the run, once
    rates = {metric: 100.0 for metric in GATED}
    assert _full_mode_failures(_document(rates), {}) == []


def test_committed_baseline_carries_every_gated_row_and_count():
    with open(os.path.join(_ROOT, "BENCH_hotpath.json"), encoding="utf-8") as handle:
        baseline = json.load(handle)
    rates = baseline["results_ops_per_sec"]
    assert [metric for metric in GATED if not rates.get(metric)] == []
    counts = baseline["counts"]
    for name, *_rest in perf_smoke.RECORDED_COUNTS:
        assert counts[name] > 0, name
    assert sorted(counts["table_pow_honest_epoch"]) == sorted(PROTOCOL_NAMES)
