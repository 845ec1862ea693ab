"""The "Standalone" command of every RESULTS.md section selects its tests.

``repro.expts.report.standalone_command`` renders one command per registered
spec: ``pytest benchmarks/bench_figures.py -k <spec id>``.  A one-word ``-k``
selects the tests whose name contains the word (case-insensitively), so the
command selects a spec's tests exactly when its id occurs in their names and
in no other spec's.  The names are the module's own parametrize ids, which
pytest uses verbatim (``test_cell[<id>]``).
"""

import importlib.util
import os
import shlex

from repro.expts import registry, report

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_MODULE = "benchmarks/bench_figures.py"


def _test_names() -> list:
    spec = importlib.util.spec_from_file_location(
        "bench_figures_under_test", os.path.join(_ROOT, _MODULE))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = []
    for test in (module.test_cell, module.test_paper_claim):
        (mark,) = [mark for mark in test.pytestmark
                   if mark.name == "parametrize"]
        names += [f"{test.__name__}[{test_id}]"
                  for test_id in mark.kwargs["ids"]]
    return names


def test_every_rendered_command_selects_its_spec_tests():
    names = _test_names()
    assert len(names) == len(set(names))
    for spec in registry.all_specs():
        words = shlex.split(report.standalone_command(spec.spec_id))
        assert words[words.index("pytest") + 1] == _MODULE
        keyword = words[words.index("-k") + 1].lower()
        selected = [name for name in names if keyword in name.lower()]
        assert selected, f"the {spec.spec_id} command selects no test"
        foreign = [name for name in selected
                   if f"[{spec.spec_id}/" not in name]
        assert not foreign, f"the {spec.spec_id} command also selects {foreign}"
