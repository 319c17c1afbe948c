"""No dead imports anywhere in the repository's Python code.

A stdlib ``ast`` scan: every name an ``import`` binds must be read
somewhere in the scope that imported it (the module for top-level
imports, the function for local ones).  Exempt are ``__future__``
imports, star imports, lines marked ``# noqa`` / ``# noqa: F401``,
names listed in ``__all__``, top-level imports of ``__init__.py``
(package re-exports) and names that only appear inside string
annotations such as ``-> "CampaignSpec"``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _python_files() -> list[Path]:
    return sorted(
        path
        for top in SCANNED
        for path in (ROOT / top).rglob("*.py")
        if "__pycache__" not in path.parts
    )


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including quoted (string) ones."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(scope: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations: list[ast.AST | None] = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used |= _annotation_names(annotation)
    return used


def _dunder_all(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.add(sub.value)
    return names


def _imports(scope: ast.AST):
    """(import node, bound name) pairs whose innermost function scope is
    ``scope`` (class bodies belong to the enclosing scope)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue  # scanned as its own scope
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str, is_package_init: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every import in ``source`` whose name is never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _dunder_all(tree)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, _SCOPES)]
    found = []
    for scope in scopes:
        is_module = scope is tree
        if is_module and is_package_init:
            continue
        used = _used_names(scope)
        for node, name in _imports(scope):
            if is_module and name in exported:
                continue
            text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if "# noqa" in text and ("F401" in text or "# noqa:" not in text):
                continue
            if name not in used:
                found.append((node.lineno, name))
    return sorted(found)


def test_scanner_flags_dead_and_spares_live_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "from typing import Any\n"
        "from pathlib import Path\n"
        "__all__ = ['loads']\n"
        "class C:\n"
        "    def f(self, x: 'Any') -> \"Path | None\":\n"
        "        import re\n"
        "        import math\n"
        "        return math.pi\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (10, "re")]
    assert unused_imports("import os\n", is_package_init=True) == []


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _python_files()
        for line, name in unused_imports(
            path.read_text(), is_package_init=path.name == "__init__.py"
        )
    ]
    assert found == []
