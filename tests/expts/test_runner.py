"""Runner: the code fingerprint, inline ad-hoc specs, grid order, ``-O``."""

import os
import subprocess
import sys

import repro
from repro.expts.runner import code_fingerprint, run_experiments
from repro.expts.specs import ExperimentSpec

CALLS = {"count": 0}


def counting_cell(params):
    CALLS["count"] += 1
    return [[params["p"], params["p"] * 10]]


def _spec(spec_id="runner-probe"):
    return ExperimentSpec(
        spec_id=spec_id, paper_anchor="Fig. T", title="runner probe",
        description="synthetic", headers=("p", "value"),
        schema=("int", "int"), cell_fn=counting_cell,
        grid=({"p": 1}, {"p": 2}, {"p": 3}))


def test_code_fingerprint_is_stable_and_hexadecimal():
    first, second = code_fingerprint(), code_fingerprint()
    assert first == second
    int(first, 16)
    assert len(first) == 16


def test_code_fingerprint_covers_data_files(tmp_path):
    """A scenario pack is a ``.json`` file: editing one must move the
    provenance line; a ``__pycache__`` entry must not."""
    (tmp_path / "module.py").write_text("VALUE = 1\n")
    packs = tmp_path / "packs"
    packs.mkdir()
    (packs / "pack.json").write_text('{"loss": 0.1}\n')
    before = code_fingerprint(root=str(tmp_path))

    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "module.cpython-311.pyc").write_bytes(b"\0")
    assert code_fingerprint(root=str(tmp_path)) == before

    (packs / "pack.json").write_text('{"loss": 0.2}\n')
    assert code_fingerprint(root=str(tmp_path)) != before


def test_every_run_computes_every_cell():
    spec = _spec()
    CALLS["count"] = 0
    first = run_experiments([spec], workers=1)[0]
    second = run_experiments([spec], workers=1)[0]
    assert CALLS["count"] == 6
    assert first.rows == second.rows == [[1, 10], [2, 20], [3, 30]]


def test_unregistered_spec_runs_inline_even_with_workers():
    """Ad-hoc specs cannot be resolved by pool workers; they must still run."""
    spec = _spec()
    CALLS["count"] = 0
    results = run_experiments([spec], workers=4)
    assert CALLS["count"] == 3
    assert results[0].rows == [[1, 10], [2, 20], [3, 30]]


def test_mixed_registered_and_adhoc_specs_with_workers():
    """Registered specs go to the pool while ad-hoc cells run in-process."""
    from repro.expts import registry

    adhoc = _spec()
    registered = registry.get("fig10c")
    results = run_experiments([registered, adhoc], workers=4)
    assert len(results[0].rows) == 11
    assert results[1].rows == [[1, 10], [2, 20], [3, 30]]


def test_shared_pool_across_specs_preserves_grid_order():
    one, two = _spec("runner-probe"), _spec("runner-probe-2")
    results = run_experiments([one, two], workers=1)
    assert [result.spec.spec_id for result in results] == \
        ["runner-probe", "runner-probe-2"]
    assert results[0].rows == results[1].rows == [[1, 10], [2, 20], [3, 30]]


def test_optimized_interpreter_is_refused(tmp_path):
    """``python -O`` strips assert statements, so a violated paper claim
    would pass unseen: the runner refuses to run at all, naming -O."""
    marker = str(tmp_path / "cell-ran")
    probe = (
        "from repro.expts.runner import run_experiments\n"
        "from repro.expts.specs import ExperimentSpec\n"
        "def cell(params):\n"
        f"    open({marker!r}, 'w').close()\n"
        "    return [[params['p']]]\n"
        "def violated(rows):\n"
        "    assert False, 'claim violated'\n"
        "spec = ExperimentSpec(\n"
        "    spec_id='optimized-probe', paper_anchor='Fig. T', title='t',\n"
        "    description='d', headers=('p',), schema=('int',),\n"
        "    cell_fn=cell, grid=({'p': 1},), checks=(violated,))\n"
        "run_experiments([spec])\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode != 0
    assert "RuntimeError" in done.stderr and "-O" in done.stderr
    assert os.listdir(tmp_path) == []  # refused before any cell ran
