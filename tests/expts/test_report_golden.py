"""Golden-output tests for the table renderers and RESULTS artifacts."""

import json

import pytest

from repro.expts.report import (
    dump_results_json,
    render_results_markdown,
    results_report,
)
from repro.expts.runner import ExperimentResult
from repro.expts.specs import ExperimentSpec
from repro.testbed.reporting import format_table, markdown_table


# ---------------------------------------------------------------------------
# markdown_table
# ---------------------------------------------------------------------------

def test_markdown_table_golden():
    text = markdown_table(
        ["protocol", "latency s", "ok"],
        [["beat", 11.47, 1], ["dumbo-sc", 30.61, 0]])
    assert text == (
        "| protocol | latency s | ok |\n"
        "| -------- | --------- | -- |\n"
        "| beat     | 11.47     | 1  |\n"
        "| dumbo-sc | 30.61     | 0  |")


def test_markdown_table_renders_nan_and_none_as_na():
    text = markdown_table(["a", "b"], [[float("nan"), None], [1.0, 2]])
    lines = text.splitlines()
    assert lines[2] == "| n/a  | n/a |"
    assert lines[3] == "| 1.00 | 2   |"


def test_format_table_renders_nan_and_none_as_na():
    text = format_table(["x"], [[float("nan")], [None]], title="t")
    # line 0: title, 1: header, 2: separator, 3-4: rows
    assert text.splitlines()[3].strip() == "n/a"
    assert text.splitlines()[4].strip() == "n/a"


def test_markdown_table_handles_ragged_row():
    # defensive: a too-long row must not crash the renderer
    text = markdown_table(["a"], [["x", "extra"]])
    assert "extra" in text


def test_both_renderers_leave_cells_past_the_headers_unpadded():
    assert format_table(["a"], [[1, 2]]).splitlines() == ["a", "-", "1  2"]
    assert markdown_table(["a"], [[1, 2]]).splitlines()[2] == "| 1 | 2 |"


# ---------------------------------------------------------------------------
# RESULTS.json / RESULTS.md
# ---------------------------------------------------------------------------

def _golden_cell(params):
    return [["alpha", params["p"], 1.5], ["beta", params["p"], float("nan")]]


def _result():
    spec = ExperimentSpec(
        spec_id="golden-probe", paper_anchor="Fig. G",
        title="Golden probe", description="A synthetic two-row experiment.",
        headers=("name", "p", "latency s"), schema=("str", "int", "float"),
        cell_fn=_golden_cell, grid=({"p": 7},),
        bindings={"topology": "none"})
    return ExperimentResult(
        spec=spec, cell_rows=[_golden_cell({"p": 7})], quick=False)


def test_results_json_is_canonical_and_nan_free():
    report = results_report([_result()], quick=False, fingerprint="cafe")
    text = dump_results_json(report)
    assert text.endswith("\n")
    parsed = json.loads(text)  # strict JSON: would fail on bare NaN
    cells = parsed["experiments"][0]["cells"]
    assert cells[0]["rows"][1][2] is None  # NaN sanitised
    assert parsed["metadata"]["code_fingerprint"] == "cafe"
    # canonical: serialising the parsed structure reproduces the bytes
    assert dump_results_json(parsed) == text


def test_results_markdown_golden_section():
    report = results_report([_result()], quick=False, fingerprint="cafe")
    text = render_results_markdown(report)
    assert "# RESULTS — reproduced figures and tables" in text
    assert "- code fingerprint: `cafe`" in text
    assert "## Fig. G — Golden probe" in text
    assert "A synthetic two-row experiment." in text
    assert "*Bindings — topology: none.*" in text
    assert "| alpha | 7 | 1.50      |" in text
    assert "| beta  | 7 | n/a       |" in text
    assert "- [Fig. G — Golden probe](#fig-g--golden-probe)" in text
    assert "registry id `golden-probe`" in text


def test_results_markdown_marks_quick_subsamples():
    spec = ExperimentSpec(
        spec_id="golden-quick", paper_anchor="Fig. Q", title="Quick probe",
        description="d", headers=("p",), schema=("int",),
        cell_fn=lambda params: [[params["p"]]],
        grid=({"p": 1}, {"p": 2}), quick_grid=({"p": 1},))
    result = ExperimentResult(spec=spec, cell_rows=[[[1]]], quick=True)
    text = render_results_markdown(
        results_report([result], quick=True, fingerprint="f"))
    assert "1/2 grid cells (quick subsample)" in text
    assert "--quick" in text


def test_experiment_result_to_json_excludes_wall_clock():
    payload = json.dumps(_result().to_json())
    assert "elapsed" not in payload


def test_run_checks_propagates_failures():
    def failing_check(rows):
        assert False, "claim violated"

    spec = ExperimentSpec(
        spec_id="golden-fail", paper_anchor="Fig. F", title="t",
        description="d", headers=("p",), schema=("int",),
        cell_fn=lambda params: [[params["p"]]], grid=({"p": 1},),
        checks=(failing_check,))
    with pytest.raises(AssertionError, match="claim violated"):
        spec.run_checks([[1]])
