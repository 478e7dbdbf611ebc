"""Static checks over the sources: no assert in src/, no unused imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "lanecert").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _name(path: Path) -> str:
    return str(path.relative_to(ROOT))


def unused_imports(tree: ast.Module):
    """Names bound by an import that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=_name)
def test_no_assert_in_src(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not lines, "assert statements at lines %s (python -O strips them)" % lines


@pytest.mark.parametrize(
    "path", [p for p in SRC + TESTS if p.name != "__init__.py"], ids=_name
)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_unused_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List as L, Dict\n"
        "x: L = sys.argv\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "Dict")]
