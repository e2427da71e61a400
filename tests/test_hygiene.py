"""Source hygiene: every imported name is used; nothing raises the recursion limit.

An AST scan of the package and the test suite.  A name counts as used
when the module refers to it anywhere, or lists it in ``__all__``;
``from __future__`` imports are compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cubefam").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_scan_flags_unused_and_spares_used():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional as Opt, Sequence\n"
        "import xml.dom\n"
        "__all__ = ['Sequence']\n"
        "def f(x: Opt[int]):\n"
        "    return os.sep\n"
    )
    assert unused_imports(tree) == ["line 2: sys", "line 4: xml"]


def recursion_limit_calls(tree: ast.Module) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setrecursionlimit"
    ]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "cubefam").glob("*.py")), ids=lambda p: p.name
)
def test_no_recursion_limit_raised(path):
    """Nothing relies on deep Python recursion: the limit stays as it is."""
    assert recursion_limit_calls(ast.parse(path.read_text(), str(path))) == []


def test_recursion_scan_flags_calls():
    tree = ast.parse(
        "import sys\n"
        "from sys import setrecursionlimit\n"
        "sys.setrecursionlimit(10**6)\n"
        "sys.getrecursionlimit()\n"
        "setrecursionlimit(5000)\n"
    )
    assert recursion_limit_calls(tree) == [3, 5]
