"""The "Standalone" command of every RESULTS.md section runs its spec alone.

``repro.expts.report.standalone_command`` renders one command per registered
spec: ``scripts/run_experiments.py --full --only <spec id>``.  ``--only``
selects the specs whose id contains its value (``registry.select``), so the
command runs exactly its spec when no other id contains that one.  Without
``--json`` / ``--markdown`` such a run writes no artifact and prints the
tables of the specs it ran.
"""

import importlib.util
import os
import shlex

from repro.expts import registry, report

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCRIPT = "scripts/run_experiments.py"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "run_experiments_under_test", os.path.join(_ROOT, _SCRIPT))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rendered_command_selects_exactly_its_spec():
    for spec in registry.all_specs():
        words = shlex.split(report.standalone_command(spec.spec_id))
        assert words[words.index("python") + 1] == _SCRIPT
        assert "--full" in words
        only = words[words.index("--only") + 1]
        assert registry.select(only) == [spec], \
            f"the {spec.spec_id} command does not select exactly its spec"


def test_only_without_artifact_paths_prints_tables_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    script = _load_script()
    # Where the canonical RESULTS.* would go: --only must write nothing there.
    monkeypatch.setattr(script, "_ROOT", str(tmp_path))
    assert script.main(["--full", "--only", "fig10c"]) == 0
    assert os.listdir(tmp_path) == []
    spec = registry.get("fig10c")
    out = capsys.readouterr().out
    assert f"{spec.paper_anchor}: {spec.title}" in out
    assert all(header in out for header in spec.headers)
    assert "no artifact written" in out
