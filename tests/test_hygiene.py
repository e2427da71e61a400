"""Source hygiene: every imported name is used; nothing raises the recursion
limit, and no function calls itself unless kept by name; numpy and mpmath
are not imported with the package, and ``cli`` and ``__init__`` import no
layer but ``errors`` with themselves; the CLI reads every rational flag
through one parser and touches no argparse private; the tolerance range
check and the integer Lubell weights are each written once; every
module-level function and class of the package is used by the package, or
kept by name; no function only hands its arguments on to another one of
the package, unless kept by name.

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
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
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


# Functions that call themselves, kept on purpose, one reason each.
RECURSIVE_KEEP = {
    "_jsonable": "walks a report's own nesting, a few levels deep",
}


def calls_own_name(node: ast.AST, name: str) -> bool:
    """A call of ``name`` or of ``self.name``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == name and getattr(func.value, "id", None) == "self"
    return getattr(func, "id", None) == name


def self_calling(tree: ast.Module) -> list[str]:
    """Functions, nested ones and methods too, whose body calls their own
    name (a method: ``self.<name>``)."""
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(calls_own_name(inner, node.name) for inner in ast.walk(node))
    )


def test_no_function_calls_itself():
    """Nothing relies on deep Python recursion: a self-calling function
    goes one frame deeper per level of its input."""
    found = set()
    for path in sorted((ROOT / "src" / "cubefam").glob("*.py")):
        found.update(self_calling(ast.parse(path.read_text(), str(path))))
    assert found == set(RECURSIVE_KEEP)


def test_self_call_scan_flags_recursion():
    tree = ast.parse(
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "def loop(n):\n"
        "    while n:\n"
        "        n = step(n)\n"
        "    return n\n"
        "class Walker(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "    def visit(self, node):\n"
        "        return [self.visit(kid) for kid in node]\n"
        "def outer(x):\n"
        "    def inner(y):\n"
        "        return inner(y - 1) if y else 0\n"
        "    return inner(x)\n"
    )
    assert self_calling(tree) == ["fact", "inner", "visit"]


HEAVY = {"numpy", "mpmath"}


def _is_type_checking(test: ast.expr) -> bool:
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def import_time_imports(tree: ast.Module):
    """The import statements that run while the module itself is imported.

    Function bodies run later and ``if TYPE_CHECKING:`` bodies never run;
    everything else at module or class level counts.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                stack.extend(child.orelse)
                continue
            stack.append(child)


def eager_heavy_imports(tree: ast.Module) -> list[int]:
    """Lines that import numpy or mpmath while the module itself is imported."""
    found = []
    for node in import_time_imports(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if node.level == 0 else []
        if any(name.split(".")[0] in HEAVY for name in names):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "cubefam").glob("*.py")), ids=lambda p: p.name
)
def test_no_eager_numpy_or_mpmath(path):
    """Queries that never compute with numpy or mpmath do not pay to load them."""
    assert eager_heavy_imports(ast.parse(path.read_text(), str(path))) == []


def test_eager_import_scan_flags_module_level_only():
    tree = ast.parse(
        "import typing\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import mpmath as mp\n"
        "if typing.TYPE_CHECKING:\n"
        "    from numpy import ndarray\n"
        "else:\n"
        "    ndarray = None\n"
        "try:\n"
        "    from numpy.random import Philox\n"
        "except ImportError:\n"
        "    import mpmath\n"
        "import numpyro, os\n"
        "from . import mpmath\n"
        "def f():\n"
        "    import numpy as np\n"
        "class C:\n"
        "    import mpmath\n"
    )
    assert eager_heavy_imports(tree) == [2, 11, 13, 19]


# Modules of the package that ``cli`` and ``__init__`` may import while
# they are themselves imported: ``errors`` only, so a query loads the
# layers its handler calls into and no others.
LAYERS = {p.stem for p in (ROOT / "src" / "cubefam").glob("*.py")} - {"__init__", "errors"}


def package_modules(node: ast.stmt) -> list[str]:
    """The package modules a relative import names: ``from .posets import
    x`` and ``from . import posets`` both name ``posets``."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]


def eager_layer_imports(tree: ast.Module, layers) -> list[int]:
    """Lines that import one of ``layers`` while the module itself is imported."""
    return sorted(
        node.lineno for node in import_time_imports(tree)
        if set(package_modules(node)) & set(layers)
    )


@pytest.mark.parametrize("name", ["cli.py", "__init__.py"])
def test_front_door_loads_no_layer_eagerly(name):
    """``import cubefam`` and ``cubefam.cli`` load ``errors`` alone; the
    package resolves its exports on first access, and each CLI handler
    imports the layers it calls in its own body."""
    path = ROOT / "src" / "cubefam" / name
    assert eager_layer_imports(ast.parse(path.read_text(), str(path)), LAYERS) == []


def test_layer_import_scan_flags_module_level_only():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import importlib\n"
        "from . import __version__\n"
        "from .errors import ParseError\n"
        "from .posets import make_v\n"
        "from . import errors, extremal\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .posets import FinitePoset\n"
        "try:\n"
        "    from .concentration import at_most\n"
        "except ImportError:\n"
        "    pass\n"
        "def handler():\n"
        "    from .extremal import extremal_search\n"
        "class C:\n"
        "    from .posets import read_poset\n"
    )
    layers = {"posets", "extremal", "concentration"}
    assert eager_layer_imports(tree, layers) == [5, 6, 11, 17]


def lines_outside(tree: ast.Module, allowed, match) -> list[int]:
    """Lines of the nodes ``match`` accepts anywhere but inside the function ``allowed``."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == allowed:
            continue
        if match(node):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def calls_to(name: str):
    """Matches a call of ``name`` or of any ``<module>.name``."""
    return lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


def fraction_calls_outside(tree: ast.Module, allowed: str) -> list[int]:
    """Lines that call ``Fraction(`` anywhere but inside the function ``allowed``."""
    return lines_outside(tree, allowed, calls_to("Fraction"))


def test_cli_parses_rationals_in_one_place():
    """A bad rational flag is a parse error (exit 2), never a traceback."""
    path = ROOT / "src" / "cubefam" / "cli.py"
    assert fraction_calls_outside(ast.parse(path.read_text(), str(path)), "_fraction_arg") == []


def test_fraction_scan_flags_calls_outside_the_parser():
    tree = ast.parse(
        "import fractions\n"
        "from fractions import Fraction\n"
        "def _fraction_arg(text):\n"
        "    return Fraction(text)\n"
        "def handler(params):\n"
        "    x = Fraction(params['q'])\n"
        "    ok = isinstance(x, Fraction)\n"
        "    return fractions.Fraction(1, 2), _fraction_arg(params['p'])\n"
        "y = Fraction('1/3')\n"
    )
    assert fraction_calls_outside(tree, "_fraction_arg") == [6, 8, 9]


def argparse_privates(tree: ast.Module) -> list[int]:
    """Lines that use a private name of argparse, or a parser's ``_actions``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            private = node.attr == "_actions" or (
                node.attr.startswith("_") and getattr(node.value, "id", None) == "argparse"
            )
        elif isinstance(node, ast.ImportFrom):
            private = node.module == "argparse" and any(
                alias.name.startswith("_") for alias in node.names
            )
        else:
            private = False
        if private:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "cubefam").glob("*.py")), ids=lambda p: p.name
)
def test_no_argparse_privates(path):
    """The CLI's flags live in its own table, so nothing reads them back
    out of argparse's internals, which may change in any Python release."""
    assert argparse_privates(ast.parse(path.read_text(), str(path))) == []


def test_argparse_scan_flags_privates():
    tree = ast.parse(
        "import argparse\n"
        "from argparse import ArgumentParser, _SubParsersAction\n"
        "p = ArgumentParser(exit_on_error=False)\n"
        "rest = p.add_argument('rest', nargs=argparse.REMAINDER)\n"
        "subs = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]\n"
        "members = self._members\n"
        "err = argparse.ArgumentError(None, 'x')\n"
    )
    assert argparse_privates(tree) == [2, 5, 5]


def says_unit_interval(node: ast.AST) -> bool:
    """A string literal (an f-string's too) naming the range "(0, 1]"."""
    return isinstance(node, ast.Constant) and "(0, 1]" in str(node.value)


def outside_families_owner(owner: str, match) -> dict:
    """{module: lines} of the package's nodes ``match`` accepts, except
    inside the function ``owner`` of ``families``."""
    found = {}
    for path in sorted((ROOT / "src" / "cubefam").glob("*.py")):
        allowed = owner if path.name == "families.py" else None
        lines = lines_outside(ast.parse(path.read_text(), str(path)), allowed, match)
        if lines:
            found[path.name] = lines
    return found


def test_tolerance_range_checked_in_one_place():
    """Every "(0, 1]" tolerance error comes from ``families.check_tolerance``."""
    assert outside_families_owner("check_tolerance", says_unit_interval) == {}


def test_lubell_weights_computed_in_one_place():
    """``math.lcm`` runs only in ``families.lubell_weights``, the one
    integer form of the Lubell weights."""
    assert outside_families_owner("lubell_weights", calls_to("lcm")) == {}


def test_one_place_scans_flag_copies():
    tree = ast.parse(
        "import math\n"
        "from math import lcm\n"
        "def check_tolerance(x):\n"
        "    raise ValueError(f'tolerance must be in (0, 1], got {x}')\n"
        "def lubell_weights(n):\n"
        "    return math.lcm(*range(1, n + 2))\n"
        "def other(x, n):\n"
        "    if not 0 < x <= 1:\n"
        "        raise ValueError(f'gamma must be in (0, 1], got {x}')\n"
        "    msg = 'eps in (0, 1]'\n"
        "    return lcm(n, 2), math.gcd(n, 2), msg\n"
    )
    assert lines_outside(tree, "check_tolerance", says_unit_interval) == [9, 10]
    assert lines_outside(tree, "lubell_weights", calls_to("lcm")) == [11]
    assert lines_outside(tree, None, calls_to("lcm")) == [6, 11]


# Module-level functions and classes that no package module refers to,
# kept on purpose, one reason each.  Everything else unreferenced is dead.
KEEP = {
    "chain_mass_bound_check": "acceptance criterion 3: the chain-free mass optimum is k-1",
    "centred_element": "acceptance criterion 4: the public centred-element search",
    "observation_check": "acceptance criterion 5: the pivot comparability oracle",
    "max_flexfree_mass": "acceptance criterion 6: the exhaustive flex-free optimum",
    "enumerate_posets": "acceptance criterion 8: every poset on at most 5 elements",
    "restrict_interval": "the reference that relative_lubell is tested against",
    "full_power_set": "public constructor of families for the family file format",
    "write_family": "public writer of the documented family file format",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(trees: list[ast.Module]) -> list[str]:
    """Module-level functions and classes no module refers to by name or
    attribute, a definition's references to itself not counting."""
    used = set()
    for tree in trees:
        for top in tree.body:
            refs = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(top)}
            used |= refs - {getattr(top, "name", None)}
    defined = {top.name for tree in trees for top in tree.body if isinstance(top, DEFINITIONS)}
    return sorted(defined - used)


def unkept_and_stale(trees: list[ast.Module], keep) -> tuple[list, list]:
    """(dead definitions missing from ``keep``, ``keep`` entries that are not dead)."""
    dead = set(unreferenced(trees))
    return sorted(dead - set(keep)), sorted(set(keep) - dead)


def test_no_library_code_only_tests_reach():
    """``__init__`` re-exports do not count as uses."""
    trees = [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "cubefam").glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert unkept_and_stale(trees, KEEP) == ([], [])


def test_definition_scan_flags_dead_and_stale():
    a = ast.parse(
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Kept:\n    pass\n"
    )
    b = ast.parse(
        "import m\n"
        "x = used()\n"
        "y = m.Attr\n"
        "class Attr:\n    def recursive(self):\n        pass\n"
    )
    assert unreferenced([a, b]) == ["Kept", "recursive"]
    assert unkept_and_stale([a, b], {"Kept": "", "used": ""}) == (["recursive"], ["used"])


# Functions and methods that only hand their arguments on to another
# function of the package, kept on purpose, one reason each.
PASS_THROUGH_KEEP = {
    "dual": "the dual order: the above and below rows swapped",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(getattr(stmt.value, "value", None), str)


def pass_through(trees: list[ast.Module]) -> list[str]:
    """Functions and methods whose body, after its docstring, is one
    ``return`` of a call to a function defined in ``trees``, every
    argument a parameter, an attribute of a parameter or a constant.

    Such a function adds a name and nothing else: its callers could call
    the function behind it with what they already hold.
    """
    defined = {
        node.name for tree in trees for node in ast.walk(tree) if isinstance(node, FUNCTIONS)
    }
    found = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            if not (len(body) == 1 and isinstance(body[0], ast.Return)):
                continue
            call = body[0].value
            if not isinstance(call, ast.Call):
                continue
            if getattr(call.func, "id", getattr(call.func, "attr", None)) not in defined:
                continue
            a = node.args
            params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            params |= {arg.arg for arg in (a.vararg, a.kwarg) if arg is not None}

            def handed_on(arg: ast.expr) -> bool:
                arg = arg.value if isinstance(arg, ast.Starred) else arg
                if isinstance(arg, ast.Attribute):
                    arg = arg.value
                return isinstance(arg, ast.Constant) or getattr(arg, "id", None) in params

            if all(handed_on(arg) for arg in call.args + [kw.value for kw in call.keywords]):
                found.append(node.name)
    return sorted(found)


def test_no_pass_through_functions():
    """A wrapper whose callers already hold everything it passes on is
    replaced by a direct call to the function behind it."""
    trees = [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "cubefam").glob("*.py"))
    ]
    assert pass_through(trees) == sorted(PASS_THROUGH_KEEP)


def test_pass_through_scan_flags_forwards_only():
    tree = ast.parse(
        "def core(a, b=0, *, anti=False):\n"
        "    return a + b\n"
        "def forward(fam, a):\n"
        "    \"Docstring.\"\n"
        "    return core(fam.members, a, anti=True)\n"
        "def spread(*args, **kwargs):\n"
        "    return core(*args, **kwargs)\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return self.core(self.k, None)\n"
        "    def core(self, k, x):\n"
        "        return k\n"
        "def computes(a):\n"
        "    return core(a + 1)\n"
        "def nests(a):\n"
        "    return core(len(a))\n"
        "def outside(a):\n"
        "    return sorted(a)\n"
        "def global_arg(a):\n"
        "    return core(a, LIMIT)\n"
        "def two_steps(a):\n"
        "    b = a\n"
        "    return core(b)\n"
    )
    assert pass_through([tree]) == ["forward", "method", "spread"]
