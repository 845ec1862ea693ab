"""Tier-1 smoke tests for the example programs.

The examples are the repo's 5-minute tour (README quickstart); they are run
as real subprocesses so import errors, CLI regressions and harness API drift
cannot break them silently.  Each invocation uses small parameters to keep
the tier-1 budget.
"""

import doctest
import os
import re
import subprocess
import sys

import pytest

import repro

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_EXAMPLES = os.path.join(_ROOT, "examples")

CASES = [
    ("quickstart.py", ["--batch-size", "3", "--seed", "7"],
     "ConsensusBatcher reduces latency"),
    ("quickstart.py", ["--protocol", "beat", "--batch-size", "3"],
     "beat"),
    ("uav_task_allocation.py", ["--tasks-per-robot", "3"],
     "Agreed task allocation"),
    ("multihop_vehicle_swarm.py", ["--seed", "9"],
     "global"),
    ("batching_anatomy.py", [],
     "NACK"),
    ("scenario_replay.py", ["--epochs", "8"],
     "invariant scenario-recovery: ok"),
    ("scenario_replay.py", ["--list"],
     "variable-link"),
    ("sharded_scale.py", ["--clusters", "4", "--cluster-size", "4",
                          "--workers", "2"],
     "bit-identical"),
]


def _run_example(script: str, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, script), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=_ROOT)


@pytest.mark.parametrize("script,args,expected", CASES,
                         ids=[f"{case[0]}-{index}"
                              for index, case in enumerate(CASES)])
def test_example_runs_clean(script, args, expected):
    """The example exits 0 and prints its headline output."""
    proc = _run_example(script, args)
    assert proc.returncode == 0, (
        f"{script} {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}")
    assert expected.lower() in proc.stdout.lower(), (
        f"{script}: expected {expected!r} in output:\n{proc.stdout}")


def test_every_example_is_smoked():
    """A new example file must be added to CASES (or this list) explicitly."""
    smoked = {case[0] for case in CASES}
    on_disk = {name for name in os.listdir(_EXAMPLES) if name.endswith(".py")}
    assert on_disk == smoked, (
        f"examples without a smoke test: {sorted(on_disk - smoked)}; "
        f"smoked but missing on disk: {sorted(smoked - on_disk)}")


def _readme_python_snippets() -> list:
    """The code of every ``PYTHONPATH=src python -c "..."`` block in README.md."""
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r'^PYTHONPATH=src python -c "\n(.*?)"$', text,
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_python_snippet_runs():
    """The README's inline stream snippet runs as printed."""
    snippets = _readme_python_snippets()
    assert len(snippets) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", snippets[0]],
                          capture_output=True, text=True, timeout=120,
                          env=env, cwd=_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "tx/s" in proc.stdout


def test_package_docstring_quickstart_runs():
    """The quickstart in ``repro``'s docstring passes as a doctest."""
    outcome = doctest.testmod(repro)
    assert outcome.attempted > 0 and outcome.failed == 0
