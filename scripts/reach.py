#!/usr/bin/env python
"""Reach ratchet: list every ``src/`` function no canonical run calls.

A ``sys.setprofile`` trace records every Python function called while the
canonical runs execute in this process:

* one pass of every ledger cell (``benchmarks/ledger/workloads.py``, traced
  form, seed 7000), each result read through ``failure``, ``facts`` and
  ``canonical`` the way the ledger reads it;
* ``scripts/run_experiments.py --quick --workers 1``;
* ``scripts/run_campaign.py --quick --parallel 1``.

Every run writes into a fresh temporary directory (dealer cache,
artifacts), so the trace never reads a warm cache and never touches a
tracked file.  Worker processes are not followed (these runs start none):
what only a worker runs is tagged ``worker-only``.

Every function defined under ``src/repro`` that the trace did not reach is
an entry of ``REACH.json``, keyed ``module:qualname`` (a function nested in
an unreached function is covered by its parent's entry).  Each entry carries
one tag saying why it stays; see TESTING.md for the tags.  Usage::

    python scripts/reach.py            # re-trace; rewrite REACH.json
    python scripts/reach.py --check    # re-trace; fail on an untagged entry
                                       # or a test-reference that does not hold

A plain run keeps the recorded tags, adds each new unreached function with
an empty tag and prunes the entries that are reached or gone.  ``--check``
writes nothing: it exits 1 when an unreached function is missing from
``REACH.json``, carries no valid tag, or is tagged
``test-reference:<tests/ path>`` with a file that is missing or does not
mention the function's name; it only warns about recorded entries that are
now reached or deleted.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import threading
from typing import Callable, Iterable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")
REACH_PATH = os.path.join(ROOT, "REACH.json")

#: the ledger's default seed: the pass every workload's numbers come from
LEDGER_SEED = 7000

#: tags that need no argument, and tags written ``prefix:<argument>``
PLAIN_TAGS = ("ablation", "abstract", "worker-only", "public-api")
ARGUMENT_TAGS = ("error-path:", "finding:", "test-reference:")
TEST_REFERENCE = "test-reference:"


# ---------------------------------------------------------------------------
# the definitions: every function under a source root, by module:qualname
# ---------------------------------------------------------------------------

def _module_name(path: str, src: str) -> str:
    relative = os.path.splitext(os.path.relpath(path, src))[0]
    parts = relative.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def scan(src: str, package: str) -> dict:
    """``{(path, qualname, first_line): (key, lines, parent)}`` of every
    ``def`` in ``src/package``.

    ``first_line`` is the line of the first decorator (where CPython starts
    the code object); ``parent`` is the definition key of the enclosing
    function, or None at module and class level.
    """
    definitions: dict = {}
    for directory, dirnames, filenames in os.walk(os.path.join(src, package)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            module = _module_name(path, src)

            def visit(node, prefix: str, parent) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        visit(child, f"{prefix}{child.name}.", parent)
                    elif isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        qualname = prefix + child.name
                        first = min([child.lineno] + [decorator.lineno for
                                     decorator in child.decorator_list])
                        key = (path, qualname, first)
                        definitions[key] = (f"{module}:{qualname}",
                                            child.end_lineno - first + 1,
                                            parent)
                        visit(child, f"{qualname}.<locals>.", key)
                    else:
                        visit(child, prefix, parent)

            visit(tree, "", None)
    return definitions


def unreached(definitions: dict, reached: set) -> dict:
    """``{module:qualname: lines}`` of the definitions not in ``reached``
    whose enclosing function (if any) was reached."""
    missing: dict = {}
    for key, (name, lines, parent) in definitions.items():
        if key in reached or (parent is not None and parent not in reached):
            continue
        missing[name] = missing.get(name, 0) + lines
    return missing


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------

def trace(run: Callable[[], None]) -> set:
    """``{(path, qualname, first_line)}`` of every Python function called
    while ``run()`` executes, in any thread it starts."""
    codes: set = set()
    add = codes.add

    def profile(frame, event, _arg) -> None:
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return {(code.co_filename, code.co_qualname, code.co_firstlineno)
            for code in codes}


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_reach_{name}", os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canonical_runs(workdir: str) -> None:
    """Run every canonical run once, writing only under ``workdir``."""
    for path in (SRC, LEDGER):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from repro.testbed import dealer_cache

    dealer_cache.DEFAULT_DEALER_CACHE = dealer_cache.DealerCache(
        os.path.join(workdir, "dealer"))
    for name in workloads.NAMES:
        for cell in workloads.build(name, traced=True):
            result = cell.run(LEDGER_SEED)
            workloads.failure(result)
            workloads.facts(result)
            workloads.canonical(result)

    experiments = _load_script("run_experiments")
    campaign = _load_script("run_campaign")
    with contextlib.redirect_stdout(io.StringIO()):
        status = [
            experiments.main(["--quick", "--workers", "1",
                              "--json", os.path.join(workdir, "RESULTS.json"),
                              "--markdown",
                              os.path.join(workdir, "RESULTS.md")]),
            campaign.main(["--quick", "--parallel", "1", "--output",
                           os.path.join(workdir, "CAMPAIGN.json")])]
    if any(status):
        raise SystemExit(f"a canonical run failed (exit codes {status})")


# ---------------------------------------------------------------------------
# the ratchet: recorded tags against a fresh trace
# ---------------------------------------------------------------------------

def valid_tag(tag: str) -> bool:
    """Whether ``tag`` is one of the known tags (see TESTING.md)."""
    return tag in PLAIN_TAGS or any(
        tag.startswith(prefix) and len(tag) > len(prefix)
        for prefix in ARGUMENT_TAGS)


def reference_problem(name: str, tag: str, root: str) -> Optional[str]:
    """Why a ``test-reference:<path>`` tag of ``name`` does not hold, or
    None: the path must be a file under ``tests/`` that mentions the
    function's own name (the last part of its qualname)."""
    path = tag[len(TEST_REFERENCE):]
    if not path.startswith("tests/"):
        return f"{path} is not under tests/"
    try:
        with open(os.path.join(root, path), encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return f"{path} is missing"
    function = name.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
    if function not in text:
        return f"{path} does not mention {function}"
    return None


def ratchet(recorded: dict, missing: dict, root: str = ROOT) -> tuple:
    """Compare a fresh trace's unreached ``missing`` with ``recorded``.

    Returns ``(entries, failures, warnings)``: ``entries`` is the new
    ``unreached`` table (recorded tags kept, new functions untagged, reached
    or deleted ones pruned); a failure is an unreached function without a
    valid tag, or whose ``test-reference`` test (a path under ``root``)
    does not hold; a warning is a recorded entry that is no longer
    unreached.
    """
    entries = {name: {"lines": lines,
                      "tag": recorded.get(name, {}).get("tag", "")}
               for name, lines in sorted(missing.items())}
    failures = []
    for name, entry in entries.items():
        tag = entry["tag"]
        if not valid_tag(tag):
            failures.append(f"{name}: " + (
                "new unreached function" if name not in recorded
                else f"invalid tag {tag!r}"))
        elif tag.startswith(TEST_REFERENCE):
            problem = reference_problem(name, tag, root)
            if problem is not None:
                failures.append(f"{name}: {problem}")
    warnings = [f"{name}: reached or deleted; a plain run prunes it"
                for name in sorted(recorded) if name not in missing]
    return entries, failures, warnings


def document(definitions: dict, entries: dict) -> dict:
    """The ``REACH.json`` document."""
    top = [lines for _name, lines, parent in definitions.values()
           if parent is None]
    return {
        "about": "src/ functions no canonical run reaches, each tagged with "
                 "why it stays; regenerate with python scripts/reach.py "
                 "(TESTING.md, 'Reach ratchet')",
        "functions": len(definitions),
        "function_lines": sum(top),
        "unreached_functions": len(entries),
        "unreached_lines": sum(entry["lines"] for entry in entries.values()),
        "unreached": entries,
    }


def read_recorded(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get("unreached", {})


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on an untagged unreached function or a "
                             "test-reference that does not hold; write nothing")
    parser.add_argument("--reach", default=REACH_PATH,
                        help="the REACH.json to read (and, without --check, "
                             "rewrite)")
    args = parser.parse_args(argv)

    definitions = scan(SRC, "repro")
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        reached = trace(lambda: canonical_runs(workdir))
    missing = unreached(definitions, reached)
    entries, failures, warnings = ratchet(read_recorded(args.reach), missing)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    summary = document(definitions, entries)
    if not args.check:
        with open(args.reach, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"{summary['unreached_functions']} of {summary['functions']} "
          f"src/ functions unreached ({summary['unreached_lines']} of "
          f"{summary['function_lines']} function lines); "
          f"{len(failures)} failing")
    for line in failures:
        print(f"failing: {line}", file=sys.stderr)
    return 1 if args.check and failures else 0


if __name__ == "__main__":
    sys.exit(main())
