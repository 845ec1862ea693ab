"""Layers import downward only.

Every ``repro.<package>`` import under ``src/repro`` -- at module level or
nested in a function -- points down the order below, or stays inside its own
package.  ``crypto`` is a leaf: any layer may import it, and it imports no
other layer.
"""

import ast
import os

import repro

#: the layers, top first: a package may import only the ones after it
ORDER = ("expts", "testbed", "protocols", "components", "core", "net")
LEAVES = ("crypto",)

SRC = os.path.dirname(os.path.abspath(repro.__file__))


def _imported_modules(tree: ast.AST, package: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every import in ``tree``, relative ones
    resolved against the module's own package (dotted, below ``repro``)."""
    package_parts = ["repro", *package.split(".")]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package_parts[:max(0, len(package_parts) + 1
                                          - node.level)]
                module = ".".join(filter(None, [*base, module]))
            if module == "repro":
                found.extend((node.lineno, f"repro.{alias.name}")
                             for alias in node.names)
            else:
                found.append((node.lineno, module))
    return found


def _allowed(source: str, target: str) -> bool:
    if source == target or target in LEAVES:
        return True
    if source in LEAVES:
        return False
    return ORDER.index(target) > ORDER.index(source)


def upward_imports() -> list[str]:
    """``path:line source -> target`` of every import that breaks the order."""
    layered = set(ORDER) | set(LEAVES)
    violations = []
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        relative = os.path.relpath(directory, SRC)
        if relative == ".":
            continue  # the package root and repro.version sit outside the order
        package = relative.replace(os.sep, ".")
        source = package.split(".")[0]
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for line, module in _imported_modules(tree, package):
                parts = module.split(".")
                if parts[0] != "repro" or len(parts) < 2 \
                        or parts[1] not in layered:
                    continue
                if not _allowed(source, parts[1]):
                    violations.append(
                        f"{os.path.relpath(path, SRC)}:{line} "
                        f"{source} -> {module}")
    return violations


def test_every_package_has_a_layer():
    packages = {entry for entry in os.listdir(SRC)
                if os.path.isfile(os.path.join(SRC, entry, "__init__.py"))}
    assert packages == set(ORDER) | set(LEAVES)


def test_layers_import_downward_only():
    assert upward_imports() == []


def test_a_nested_upward_import_is_caught():
    tree = ast.parse("def f():\n    from repro.expts.runner import x\n")
    assert _imported_modules(tree, "testbed") == [(2, "repro.expts.runner")]
    assert not _allowed("testbed", "expts")
    assert not _allowed("crypto", "net") and _allowed("net", "crypto")


def test_a_relative_import_resolves_against_its_own_package():
    tree = ast.parse("from ..expts import runner\nfrom . import harness\n"
                     "from .. import core\n")
    assert _imported_modules(tree, "testbed") == [
        (1, "repro.expts"), (2, "repro.testbed"), (3, "repro.core")]
    # one package deeper, the same dots climb one level less
    assert _imported_modules(tree, "testbed.packs") == [
        (1, "repro.testbed.expts"), (2, "repro.testbed.packs"),
        (3, "repro.testbed")]
