"""The reach ratchet's gate logic (``scripts/reach.py``) on a synthetic module.

The canonical runs take minutes, so these tests drive the same pieces the
script chains -- ``scan``, ``trace``, ``unreached``, ``ratchet`` and
``document`` -- over a throwaway package instead.
"""

import importlib.util
import json
import os
import sys
import textwrap

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach_under_test", os.path.join(_ROOT, "scripts", "reach.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

SOURCE = '''
def used():
    def inner():
        return 1
    return inner()


def unused():
    def nested():
        return 2
    return nested()


class Thing:
    def method(self):
        return 3

    @property
    def prop(self):
        return 4

    def untouched(self):
        return 5
'''


@pytest.fixture
def synthetic(tmp_path):
    """``(src root, definitions, unreached)`` of the package ``synth``
    after a run that calls ``used``, ``Thing.method`` and ``Thing.prop``."""
    package = tmp_path / "synth"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(SOURCE))
    sys.path.insert(0, str(tmp_path))
    try:
        module = importlib.import_module("synth.mod")

        def run():
            module.used()
            thing = module.Thing()
            thing.method()
            return thing.prop

        definitions = reach.scan(str(tmp_path), "synth")
        missing = reach.unreached(definitions, reach.trace(run))
        yield definitions, missing
    finally:
        sys.path.remove(str(tmp_path))
        for name in ("synth.mod", "synth"):
            sys.modules.pop(name, None)


def test_the_trace_finds_exactly_the_uncalled_functions(synthetic):
    definitions, missing = synthetic
    assert {name for name, _lines, _parent in definitions.values()} == {
        "synth.mod:used", "synth.mod:used.<locals>.inner",
        "synth.mod:unused", "synth.mod:unused.<locals>.nested",
        "synth.mod:Thing.method", "synth.mod:Thing.prop",
        "synth.mod:Thing.untouched"}
    # ``nested`` is covered by its unreached parent's entry
    assert missing == {"synth.mod:unused": 4, "synth.mod:Thing.untouched": 2}


def test_a_new_or_untagged_function_fails_the_gate(synthetic):
    _definitions, missing = synthetic
    entries, failures, warnings = reach.ratchet({}, missing)
    assert [entry["tag"] for entry in entries.values()] == ["", ""]
    assert failures == ["synth.mod:Thing.untouched: new unreached function",
                        "synth.mod:unused: new unreached function"]
    assert warnings == []
    recorded = {"synth.mod:unused": {"tag": "public-api"},
                "synth.mod:Thing.untouched": {"tag": "because"}}
    _entries, failures, _warnings = reach.ratchet(recorded, missing)
    assert failures == ["synth.mod:Thing.untouched: invalid tag 'because'"]


def test_tagged_functions_pass_and_keep_their_tags(synthetic):
    _definitions, missing = synthetic
    recorded = {"synth.mod:unused": {"tag": "error-path:bad-input"},
                "synth.mod:Thing.untouched": {"tag": "public-api"}}
    entries, failures, warnings = reach.ratchet(recorded, missing)
    assert failures == [] and warnings == []
    assert entries == {
        "synth.mod:Thing.untouched": {"lines": 2, "tag": "public-api"},
        "synth.mod:unused": {"lines": 4, "tag": "error-path:bad-input"}}


def test_a_test_reference_must_name_a_test_that_mentions_it(synthetic,
                                                            tmp_path):
    _definitions, missing = synthetic
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_thing.py").write_text(
        "def test_it():\n    assert Thing().untouched() == 5\n")
    (tmp_path / "tests" / "test_other.py").write_text("def test_it(): pass\n")

    def failures_for(tag):
        recorded = {"synth.mod:unused": {"tag": "ablation"},
                    "synth.mod:Thing.untouched": {"tag": tag}}
        entries, failures, _warnings = reach.ratchet(recorded, missing,
                                                     root=str(tmp_path))
        assert entries["synth.mod:Thing.untouched"]["tag"] == tag
        return failures

    assert failures_for("test-reference:tests/test_thing.py") == []
    assert failures_for("test-reference:tests/test_gone.py") == [
        "synth.mod:Thing.untouched: tests/test_gone.py is missing"]
    assert failures_for("test-reference:tests/test_other.py") == [
        "synth.mod:Thing.untouched: tests/test_other.py does not mention "
        "untouched"]
    assert failures_for("test-reference:src/synth/mod.py") == [
        "synth.mod:Thing.untouched: src/synth/mod.py is not under tests/"]
    # the bare tag names no test: it is no tag at all
    assert failures_for("test-reference") == [
        "synth.mod:Thing.untouched: invalid tag 'test-reference'"]


def test_a_reached_or_deleted_entry_only_warns_and_is_pruned(synthetic):
    _definitions, missing = synthetic
    recorded = {"synth.mod:unused": {"tag": "ablation"},
                "synth.mod:Thing.untouched": {"tag": "abstract"},
                "synth.mod:gone": {"tag": "public-api"}}
    entries, failures, warnings = reach.ratchet(recorded, missing)
    assert failures == []
    assert warnings == ["synth.mod:gone: reached or deleted; a plain run "
                        "prunes it"]
    assert "synth.mod:gone" not in entries


def test_every_tag_form():
    for tag in ("test-reference:tests/test_x.py", "ablation", "abstract",
                "worker-only", "public-api", "error-path:node-churn",
                "finding:collisions"):
        assert reach.valid_tag(tag), tag
    for tag in ("", "error-path:", "finding:", "public", "finding",
                "test-reference", "test-reference:"):
        assert not reach.valid_tag(tag), tag


def test_the_document_counts_what_it_lists(synthetic):
    definitions, missing = synthetic
    entries, _failures, _warnings = reach.ratchet({}, missing)
    document = reach.document(definitions, entries)
    assert document["functions"] == 7
    assert document["function_lines"] == 4 + 4 + 2 + 3 + 2
    assert document["unreached_functions"] == 2
    assert document["unreached_lines"] == 6
    text = json.dumps(document, indent=2, sort_keys=True)
    assert json.loads(text) == document


def test_the_repo_list_is_fully_tagged():
    with open(os.path.join(_ROOT, "REACH.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["unreached"]
    untagged = [name for name, entry in recorded.items()
                if not reach.valid_tag(entry["tag"])]
    assert untagged == []
    broken = [reach.reference_problem(name, entry["tag"], _ROOT)
              for name, entry in recorded.items()
              if entry["tag"].startswith(reach.TEST_REFERENCE)]
    assert [problem for problem in broken if problem is not None] == []
