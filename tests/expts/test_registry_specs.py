"""Spec/registry round-trip: the declarative layer of `repro.expts`."""

import json
import pickle

import pytest

from repro.expts import registry
from repro.expts.registry import all_specs
from repro.expts.paper import ABLATIONS, ablation_nack_cell
from repro.expts.specs import ExperimentSpec, SpecError, params_key


def _dummy_cell(params):
    return [["x", 1]]


def _make_spec(**overrides):
    kwargs = dict(
        spec_id="dummy", paper_anchor="Fig. 0", title="t", description="d",
        headers=("a", "b"), schema=("str", "int"), cell_fn=_dummy_cell,
        grid=({"p": 1}, {"p": 2}))
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


# ---------------------------------------------------------------------------
# the registered paper specs
# ---------------------------------------------------------------------------

def test_registry_contains_every_figure_and_table():
    ids = {spec.spec_id for spec in all_specs()}
    assert {"fig10a", "fig10b", "fig10c", "fig10d", "fig11a", "fig11b",
            "fig12a", "fig12b", "fig13a", "fig13b", "table1", "ablations",
            "improvement-summary"} <= ids


@pytest.mark.parametrize("num_nodes, naive_bits, compressed_bits",
                         [(4, 12, 4), (10, 90, 10), (16, 240, 16)])
def test_nack_ablation_pins_every_grid_point(num_nodes, naive_bits,
                                             compressed_bits):
    params = {"ablation": "nack-encoding", "num_nodes": num_nodes}
    assert params in ABLATIONS.grid
    rows = ablation_nack_cell(params)
    assert [row[3] for row in rows] == [naive_bits, compressed_bits]


def test_registered_specs_have_unique_ids_and_anchors():
    specs = all_specs()
    assert len({spec.spec_id for spec in specs}) == len(specs)
    for spec in specs:
        assert spec.paper_anchor
        assert spec.description


def test_registered_grids_are_json_stable_and_picklable():
    """Cells must survive the JSON params key and multiprocessing pickling."""
    for spec in all_specs():
        for params in spec.grid:
            assert json.loads(params_key(params)) == dict(params)
        pickle.loads(pickle.dumps(spec.cell_fn))
        for check in spec.checks:
            pickle.loads(pickle.dumps(check))


def test_quick_grids_are_subsets_of_full_grids():
    for spec in all_specs():
        full = {params_key(params) for params in spec.grid}
        for params in spec.cells(quick=True):
            assert params_key(params) in full, (spec.spec_id, params)


def test_manifest_round_trips_through_json():
    for spec in all_specs():
        manifest = spec.to_manifest()
        assert json.loads(json.dumps(manifest, sort_keys=True)) == manifest
        assert manifest["num_quick_cells"] <= manifest["num_cells"]


def test_get_unknown_spec_lists_known_ids():
    with pytest.raises(KeyError, match="fig10a"):
        registry.get("no-such-experiment")


def test_duplicate_registration_is_rejected(monkeypatch):
    # register into a copy: the real registry never sees the probe
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    spec = _make_spec(spec_id="test-duplicate-probe")
    registry.register(spec)
    with pytest.raises(SpecError, match="already registered"):
        registry.register(spec)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_schema_arity_must_match_headers():
    with pytest.raises(SpecError, match="arity"):
        _make_spec(schema=("str",))


def test_unknown_schema_tag_is_rejected():
    with pytest.raises(SpecError, match="unknown schema tag"):
        _make_spec(schema=("str", "double"))


def test_empty_grid_is_rejected():
    with pytest.raises(SpecError, match="empty"):
        _make_spec(grid=())


def test_duplicate_grid_cells_are_rejected():
    with pytest.raises(SpecError, match="duplicate"):
        _make_spec(grid=({"p": 1}, {"p": 1}))


def test_quick_grid_must_be_subset():
    with pytest.raises(SpecError, match="not a cell"):
        _make_spec(quick_grid=({"p": 3},))


def test_validate_rows_accepts_int_for_float_and_none_for_float():
    spec = _make_spec(schema=("str", "float"))
    spec.validate_rows([["ok", 1], ["ok", 1.5], ["ok", None]])


def test_validate_rows_rejects_bad_arity_and_types():
    spec = _make_spec()
    with pytest.raises(SpecError, match="arity"):
        spec.validate_rows([["only-one"]])
    with pytest.raises(SpecError, match="expected int"):
        spec.validate_rows([["ok", "not-an-int"]])
    with pytest.raises(SpecError, match="expected int"):
        spec.validate_rows([["ok", True]])
    with pytest.raises(SpecError, match="expected str"):
        spec.validate_rows([[3, 1]])
