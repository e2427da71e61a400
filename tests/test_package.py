"""The package's export contract: every name in ``__all__`` resolves, on
first access, to its home module's object, and nothing else resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubefam

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(script: str):
    """Run ``script`` in a fresh interpreter; the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(set(cubefam.__all__) - {"__version__"}))
def test_export_is_its_home_modules_object(name):
    obj = getattr(cubefam, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("cubefam.")
    assert getattr(home, name) is obj


def test_star_import_binds_every_export_and_dir_lists_them():
    bound, listed = fresh(
        "import json\n"
        "import cubefam\n"
        "listed = [n for n in cubefam.__all__ if n in dir(cubefam)]\n"
        "ns = {}\n"
        "exec('from cubefam import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), listed]))\n"
    )
    assert bound == sorted(cubefam.__all__)
    assert listed == cubefam.__all__


def test_first_access_loads_the_home_module_only():
    """``SetFamily`` lives in ``families``, which needs ``errors`` alone."""
    loaded = fresh(
        "import json, sys\n"
        "import cubefam\n"
        "cubefam.SetFamily\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cubefam'))))\n"
    )
    assert loaded == ["cubefam", "cubefam.errors", "cubefam.families"]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        cubefam.no_such_export
    assert not hasattr(cubefam, "no_such_export")


def test_from_import_still_reaches_submodules():
    names = fresh(
        "import json\n"
        "from cubefam import cli, extremal\n"
        "print(json.dumps([cli.__name__, extremal.__name__, callable(cli.main)]))\n"
    )
    assert names == ["cubefam.cli", "cubefam.extremal", True]
