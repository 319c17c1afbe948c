"""Control modules import no execution stack at module level.

The CLI steps that run no job (the set-up probe ``campaign run --limit
0``, ``--dry-run``, a resume with nothing pending, ``status``, ``report``
and ``export``) load the modules listed in ``CONTROL`` and whatever those
import at module level.  A stdlib ``ast`` scan checks that none of those
imports names the execution stack; imports inside functions and under
``if TYPE_CHECKING:`` are how that stack is deferred and are not checked.
``tests/test_import_budget.py`` checks each CLI step at run time; this
check also fails for an eager import on a path no budget case runs.

A second scan covers every module: none imports OpenSSL's bindings at
module level, so no step maps libcrypto unless it hashes a trace file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from .test_import_budget import EXECUTION_STACK

SRC = Path(__file__).resolve().parents[1] / "src"

CONTROL = (
    "repro/campaign/spec.py",
    "repro/campaign/store.py",
    "repro/campaign/queue.py",
    "repro/campaign/report.py",
    "repro/campaign/watch.py",
    "repro/campaign/manifest.py",
    "repro/campaign/orchestrator.py",
    "repro/obs/metrics.py",
    "repro/__main__.py",
)


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _is_import_error_handler(handler: ast.ExceptHandler) -> bool:
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return all(
        isinstance(name, ast.Name) and name.id in ("ImportError", "ModuleNotFoundError")
        for name in names
    )


def _module_level_imports(
    tree: ast.Module, fallbacks: bool = True
) -> list[ast.Import | ast.ImportFrom]:
    """Import statements that run when the module is imported: top-level
    ones and those nested in top-level ``if``/``try``/``with`` blocks.
    ``fallbacks=False`` leaves out the bodies of ``except ImportError``
    handlers, which run only where the module tried first is missing."""
    found: list[ast.Import | ast.ImportFrom] = []
    pending: list[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, ast.If):
            if not _is_type_checking(node):
                pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                pending.extend(block)
            for handler in node.handlers:
                if fallbacks or not _is_import_error_handler(handler):
                    pending.extend(handler.body)
        elif isinstance(node, ast.With):
            pending.extend(node.body)
    return found


def _imported_names(node: ast.Import | ast.ImportFrom, module: str) -> list[str]:
    """Every dotted name the import may load: the module and, for
    ``from X import y``, ``X.y`` (``y`` may be a submodule)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        package = module.split(".")[: -node.level]
        base = ".".join(package + ([base] if base else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _forbidden(name: str) -> bool:
    return any(name == top or name.startswith(top + ".") for top in EXECUTION_STACK)


@pytest.mark.parametrize("relative", CONTROL)
def test_control_module_imports_no_execution_stack(relative):
    path = SRC / relative
    module = _module_name(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = sorted(
        f"line {node.lineno}: {name}"
        for node in _module_level_imports(tree)
        for name in _imported_names(node, module)
        if _forbidden(name)
    )
    assert bad == []


@pytest.mark.parametrize(
    "source, names",
    [
        ("from ..sim import pool", ["repro.sim", "repro.sim.pool"]),
        (
            "from .worker import drain_campaign",
            ["repro.campaign.worker", "repro.campaign.worker.drain_campaign"],
        ),
        ("import multiprocessing", ["multiprocessing"]),
    ],
)
def test_relative_imports_resolve_from_the_module(source, names):
    node = ast.parse(source).body[0]
    assert _imported_names(node, "repro.campaign.orchestrator") == names


def test_scan_sees_nested_and_skips_type_checking_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..sim.pool import SimJob\n"
        "try:\n"
        "    import multiprocessing\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    from ..guard.chaos import ChaosPlan\n"
    )
    found = [
        name
        for node in _module_level_imports(tree)
        for name in _imported_names(node, "repro.campaign.orchestrator")
        if _forbidden(name)
    ]
    assert found == ["multiprocessing"]


# The modules that map OpenSSL's libcrypto when imported (``hmac`` and
# ``secrets`` load ``_hashlib`` themselves): about 3.6 MB resident.
OPENSSL = ("hashlib", "_hashlib", "hmac", "secrets", "ssl")


def test_no_module_imports_openssl_at_module_level():
    """Content keys hash with the interpreter's own SHA-256; ``hashlib``
    is imported where a whole trace file is hashed, or as the fallback
    for an interpreter built without its own SHA-256 module."""
    bad = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        bad += [
            f"{module} line {node.lineno}: {name}"
            for node in _module_level_imports(tree, fallbacks=False)
            for name in _imported_names(node, module)
            if name.split(".")[0] in OPENSSL
        ]
    assert bad == []


def test_openssl_scan_skips_only_import_error_fallbacks():
    tree = ast.parse(
        "try:\n"
        "    from _sha2 import sha256\n"
        "except ImportError:\n"
        "    from hashlib import sha256\n"
        "try:\n"
        "    import hmac\n"
        "except OSError:\n"
        "    import hashlib\n"
    )
    found = [
        name
        for node in _module_level_imports(tree, fallbacks=False)
        for name in _imported_names(node, "repro.sim.diskcache")
    ]
    assert sorted(found) == ["_sha2", "_sha2.sha256", "hashlib", "hmac"]
