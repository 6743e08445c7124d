"""Every module-level import in ``src/``, ``tests/`` and ``benchmarks/`` is used.

A stdlib-only stand-in for a linter's unused-import rule (pyflakes F401):
an import binds a name at module level, and that name must be read
somewhere in the module.  Skipped: ``__init__.py`` files (their imports are
re-exports), names listed in ``__all__``, ``from __future__`` imports, and
imports marked ``# noqa: F401`` (kept for their side effect, such as
populating a registry).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks")


def _module_imports(body: list[ast.stmt]):
    """Imports executed at module level, including under ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _module_imports(node.body)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)
            yield from _module_imports(node.orelse)
            yield from _module_imports(getattr(node, "finalbody", []))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            }
    return set()


def unused_imports(path: Path) -> list[str]:
    """``"line: name"`` for every module-level import ``path`` never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    read |= _exported(tree)
    found = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in read:
                found.append(f"{node.lineno}: {bound}")
    return found


MODULES = sorted(
    path
    for top in CHECKED
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Any, Iterator\n"
        "__all__ = ['Iterator']\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    np = None\n"
        "import os.path\n"
        "def f(x: Any) -> None:\n"
        "    import sys\n"
        "    return np\n"
    )
    assert unused_imports(module) == ["2: os", "10: os"]
