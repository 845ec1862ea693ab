#!/usr/bin/env python
"""Verify that the documentation's relative links and anchors cannot rot.

Scans the repo's markdown documents for ``[text](target)`` links and checks

* relative file targets exist (``RESULTS.json``, ``ARCHITECTURE.md``, ...);
* anchor targets (``FILE.md#heading`` or ``#heading``) match a real heading
  of the target document, using GitHub's slug rules;

and checks that every ``NAME.md`` (or ``path/NAME.md``, from the repo root)
named in a comment or docstring under ``src/`` is a file of the repo.
External (``http(s)://``) links are out of scope. Exits non-zero listing
every broken link. Run standalone or via CI::

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Shared with the RESULTS.md table-of-contents generator, so the anchors it
# emits and the anchors this script validates can never use different rules.
from repro.expts.report import github_slug  # noqa: E402

#: documents checked (root-level docs; add new ones here)
DOCS = [
    "README.md",
    "ARCHITECTURE.md",
    "GUIDE.md",
    "TESTING.md",
    "PERFORMANCE.md",
    "ROADMAP.md",
    "RESULTS.md",
    "CHANGES.md",
    "PAPER.md",
]

#: a markdown document named in source text: ``RESULTS.md``,
#: ``benchmarks/ledger/README.md``
_DOC_NAME = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def heading_slugs(markdown: str) -> set:
    """All anchor slugs defined by a document (duplicate suffixing ignored:
    the docs do not rely on ``-1`` style duplicates)."""
    without_code = _CODE_FENCE.sub("", markdown)
    return {github_slug(match.group(1))
            for match in _HEADING.finditer(without_code)}


def check_document(name: str) -> list:
    """Broken-link descriptions for one document."""
    path = os.path.join(ROOT, name)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    problems = []
    for match in _LINK.finditer(_CODE_FENCE.sub("", text)):
        target = match.group(0), match.group(1)
        link_text, href = target
        if href.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = href.partition("#")
        if file_part:
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), file_part))
            if not os.path.exists(resolved):
                problems.append(f"{name}: {link_text} -> missing file "
                                f"{file_part!r}")
                continue
            anchor_doc = resolved
        else:
            anchor_doc = path
        if anchor:
            if not anchor_doc.endswith((".md", ".markdown")):
                problems.append(f"{name}: {link_text} -> anchor on "
                                f"non-markdown target {href!r}")
                continue
            with open(anchor_doc, "r", encoding="utf-8") as handle:
                slugs = heading_slugs(handle.read())
            if anchor not in slugs:
                problems.append(f"{name}: {link_text} -> no heading for "
                                f"anchor #{anchor} in "
                                f"{os.path.relpath(anchor_doc, ROOT)}")
    return problems


def _comments_and_docstrings(source: str):
    """``(line, text)`` for every comment and docstring of a module."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                yield first.lineno, first.value.value


def check_source(path: str) -> list:
    """Descriptions of the ``.md`` names in ``path``'s comments and
    docstrings that are not files of the repo."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    problems = []
    for line, text in sorted(_comments_and_docstrings(source)):
        for match in _DOC_NAME.finditer(text):
            name = match.group(0)
            if not os.path.exists(os.path.join(ROOT, name)):
                at_line = line + text.count("\n", 0, match.start())
                problems.append(f"{os.path.relpath(path, ROOT)}:{at_line}: "
                                f"names missing document {name!r}")
    return problems


def check_src() -> list:
    """:func:`check_source` over every ``src/**/*.py``."""
    problems = []
    for directory, _, files in sorted(os.walk(_SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                problems.extend(check_source(os.path.join(directory, name)))
    return problems


def main() -> int:
    problems = []
    missing_docs = []
    for name in DOCS:
        if not os.path.exists(os.path.join(ROOT, name)):
            missing_docs.append(name)
            continue
        problems.extend(check_document(name))
    for name in missing_docs:
        problems.append(f"checked document does not exist: {name}")
    problems.extend(check_src())
    if problems:
        print(f"{len(problems)} broken documentation link(s):",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"docs link check: {len(DOCS) - len(missing_docs)} documents, "
          f"all relative links and anchors resolve; every document src/ "
          f"names exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
