"""Documentation invariants: the cross-reference web cannot rot silently."""

import importlib.util
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _read(name):
    with open(os.path.join(_ROOT, name), encoding="utf-8") as handle:
        return handle.read()


def test_link_checker_passes_on_the_repo():
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "scripts", "check_docs_links.py")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _checker():
    path = os.path.join(_ROOT, "scripts", "check_docs_links.py")
    spec = importlib.util.spec_from_file_location("check_docs_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_comments_and_docstrings_name_only_existing_documents():
    assert _checker().check_src() == []


def test_src_check_flags_a_missing_document_in_a_comment_or_docstring(
        tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""See RESULTS.md and\nNOWHERE.md."""\n'
                      'NAME = "STRING_ONLY.md"  # see GONE.md\n'
                      'def f():\n    """docs/ABSENT.md"""\n')
    problems = _checker().check_source(str(module))
    assert [problem.split(": ", 1)[1] for problem in problems] == [
        "names missing document 'NOWHERE.md'",
        "names missing document 'GONE.md'",
        "names missing document 'docs/ABSENT.md'"]
    assert [problem.split(": ", 1)[0].rsplit(":", 1)[1]
            for problem in problems] == ["2", "3", "5"]


def test_readme_and_architecture_exist_and_are_linked_from_roadmap():
    roadmap = _read("ROADMAP.md")
    assert "(README.md)" in roadmap
    assert "(ARCHITECTURE.md)" in roadmap
    assert os.path.exists(os.path.join(_ROOT, "README.md"))
    assert os.path.exists(os.path.join(_ROOT, "ARCHITECTURE.md"))


def test_architecture_is_linked_from_testing_and_performance():
    assert "(ARCHITECTURE.md)" in _read("TESTING.md")
    assert "(ARCHITECTURE.md)" in _read("PERFORMANCE.md")


def test_results_md_is_generated_and_covers_every_spec():
    """RESULTS.md must exist and contain one section per registered spec."""
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    try:
        from repro.expts.registry import all_specs
    finally:
        sys.path.pop(0)
    results = _read("RESULTS.md")
    assert results.startswith("# RESULTS")
    for spec in all_specs():
        assert f"## {spec.paper_anchor} — {spec.title}" in results, \
            f"RESULTS.md lacks a section for {spec.spec_id}"
        assert f"registry id `{spec.spec_id}`" in results
