"""Runner caching: hit/miss semantics keyed by the code fingerprint."""

import json
import os
import subprocess
import sys

import repro
from repro.expts.runner import (
    ResultsCache,
    code_fingerprint,
    run_experiments,
    run_spec,
)
from repro.expts.specs import ExperimentSpec

CALLS = {"count": 0}


def counting_cell(params):
    CALLS["count"] += 1
    return [[params["p"], params["p"] * 10]]


def _spec(spec_id="cache-probe"):
    return ExperimentSpec(
        spec_id=spec_id, paper_anchor="Fig. T", title="cache probe",
        description="synthetic", headers=("p", "value"),
        schema=("int", "int"), cell_fn=counting_cell,
        grid=({"p": 1}, {"p": 2}, {"p": 3}))


def test_cache_miss_then_hit(tmp_path):
    cache = ResultsCache(str(tmp_path))
    spec = _spec()
    CALLS["count"] = 0
    first = run_spec(spec, cache=cache)
    assert CALLS["count"] == 3
    assert first.cached_cells == 0
    assert first.rows == [[1, 10], [2, 20], [3, 30]]

    second = run_spec(spec, cache=cache)
    assert CALLS["count"] == 3  # every cell served from disk
    assert second.cached_cells == 3
    assert second.rows == first.rows


def test_fingerprint_change_invalidates_cache(tmp_path):
    cache = ResultsCache(str(tmp_path))
    spec = _spec()
    CALLS["count"] = 0
    run_spec(spec, cache=cache, fingerprint="aaaa")
    assert CALLS["count"] == 3
    run_spec(spec, cache=cache, fingerprint="aaaa")
    assert CALLS["count"] == 3
    result = run_spec(spec, cache=cache, fingerprint="bbbb")
    assert CALLS["count"] == 6  # old entries keyed under the old code
    assert result.cached_cells == 0


def test_use_cache_false_recomputes_but_rewrites(tmp_path):
    cache = ResultsCache(str(tmp_path))
    spec = _spec()
    CALLS["count"] = 0
    run_spec(spec, cache=cache, fingerprint="aaaa")
    result = run_spec(spec, cache=cache, use_cache=False, fingerprint="aaaa")
    assert CALLS["count"] == 6
    assert result.cached_cells == 0
    run_spec(spec, cache=cache, fingerprint="aaaa")
    assert CALLS["count"] == 6  # the rewrite is still usable


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultsCache(str(tmp_path))
    spec = _spec()
    CALLS["count"] = 0
    run_spec(spec, cache=cache, fingerprint="aaaa")
    for name in os.listdir(tmp_path):
        with open(os.path.join(tmp_path, name), "w") as handle:
            handle.write("{not json")
    result = run_spec(spec, cache=cache, fingerprint="aaaa")
    assert CALLS["count"] == 6
    assert result.rows == [[1, 10], [2, 20], [3, 30]]


def test_cache_key_depends_on_spec_params_and_code(tmp_path):
    cache = ResultsCache(str(tmp_path))
    keys = {
        cache.key("a", {"p": 1}, "f1"),
        cache.key("a", {"p": 2}, "f1"),
        cache.key("b", {"p": 1}, "f1"),
        cache.key("a", {"p": 1}, "f2"),
    }
    assert len(keys) == 4
    # key order of params must not matter
    assert cache.key("a", {"x": 1, "y": 2}, "f") == \
        cache.key("a", {"y": 2, "x": 1}, "f")


def test_cache_entries_record_provenance(tmp_path):
    cache = ResultsCache(str(tmp_path))
    spec = _spec()
    run_spec(spec, cache=cache, fingerprint="feed")
    entries = [json.load(open(os.path.join(tmp_path, name)))
               for name in os.listdir(tmp_path)]
    assert {entry["spec_id"] for entry in entries} == {"cache-probe"}
    assert {entry["code_fingerprint"] for entry in entries} == {"feed"}


def test_code_fingerprint_is_stable_and_hexadecimal():
    first, second = code_fingerprint(), code_fingerprint()
    assert first == second
    int(first, 16)
    assert len(first) == 16


def test_unregistered_spec_runs_inline_even_with_workers(tmp_path):
    """Ad-hoc specs cannot be resolved by pool workers; they must still run."""
    cache = ResultsCache(str(tmp_path))
    spec = _spec()
    CALLS["count"] = 0
    results = run_experiments([spec], cache=cache, workers=4)
    assert CALLS["count"] == 3
    assert results[0].rows == [[1, 10], [2, 20], [3, 30]]


def test_mixed_registered_and_adhoc_specs_with_workers(tmp_path):
    """Registered specs go to the pool while ad-hoc cells run in-process."""
    from repro.expts import registry

    cache = ResultsCache(str(tmp_path))
    adhoc = _spec()
    registered = registry.get("fig10c")
    results = run_experiments([registered, adhoc], cache=cache, workers=4)
    assert len(results[0].rows) == 11
    assert results[1].rows == [[1, 10], [2, 20], [3, 30]]


def test_shared_pool_across_specs_preserves_grid_order(tmp_path):
    cache = ResultsCache(str(tmp_path))
    one, two = _spec("cache-probe"), _spec("cache-probe-2")
    results = run_experiments([one, two], cache=cache, workers=1)
    assert [result.spec.spec_id for result in results] == \
        ["cache-probe", "cache-probe-2"]
    assert results[0].rows == results[1].rows == [[1, 10], [2, 20], [3, 30]]


def test_optimized_interpreter_is_refused(tmp_path):
    """``python -O`` strips assert statements, so a violated paper claim
    would pass unseen: the runner refuses to run at all, naming -O."""
    probe = (
        "from repro.expts.runner import ResultsCache, run_experiments\n"
        "from repro.expts.specs import ExperimentSpec\n"
        "def cell(params):\n"
        "    return [[params['p']]]\n"
        "def violated(rows):\n"
        "    assert False, 'claim violated'\n"
        "spec = ExperimentSpec(\n"
        "    spec_id='optimized-probe', paper_anchor='Fig. T', title='t',\n"
        "    description='d', headers=('p',), schema=('int',),\n"
        "    cell_fn=cell, grid=({'p': 1},), checks=(violated,))\n"
        f"run_experiments([spec], cache=ResultsCache({str(tmp_path)!r}))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode != 0
    assert "RuntimeError" in done.stderr and "-O" in done.stderr
    assert os.listdir(tmp_path) == []  # refused before any cell ran
