"""Which modules a process loads, and the package surface that loads them.

``import choosable`` loads no submodule: each public name imports its home
module on first use.  Each command of ``choosable`` imports the modules it
runs in its body, so a process compiles only those.  What a process loads
is checked in a fresh interpreter, since this one has loaded everything.
"""

import ast
import fractions
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import choosable

SRC = Path(__file__).resolve().parent.parent / "src"

PATH_DOC = '{"graph":"path","weights":[1,1],"lists":[[1,2],[2,3]]}'
CYCLE_DOC = (
    '{"graph":"cycle","weights":[2,2,2,2],'
    '"lists":[[1,2,3,4],[1,2,3,4],[3,4,5,6],[1,2,5,6]],'
    '"forced":{"vertex":0,"colors":[1,2]}}'
)
COLORING_DOC = "[[1], [2]]"

BASE = {"choosable", "choosable.cli", "choosable.model"}
FORMULAS = BASE | {"choosable.cycles", "fractions"}
CYCLES = FORMULAS | {"choosable.hall"}

# command, with {path}, {cycle} and {coloring} for input files -> its exit
# code and the package modules it loads, with ``fractions`` if it loads that
LOADS = {
    "verify {path} {coloring}": (0, BASE),
    "decide {path}": (0, BASE | {"choosable.hall"}),
    "waterfall {path}": (0, BASE | {"choosable.waterfall"}),
    "oracle {path}": (0, BASE | {"choosable.oracle"}),
    "decide {cycle}": (1, CYCLES),
    "fchr --n 8": (0, FORMULAS),
    "free-choosable --a 9 --b 4 --n 8": (0, FORMULAS),
    "counterexample --a 4 --b 2 --n 4": (0, FORMULAS),
}

PROBE = """
import json, sys
from choosable.cli import main
code = main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.split(".")[0] in ("choosable", "fractions"))
print(json.dumps([code, loaded]))
"""


def run_probe(code, *argv):
    """The last stdout line of ``python -S -c code *argv`` with the package on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("command", LOADS)
def test_command_loads_only_what_it_runs(command, tmp_path):
    files = {"path": PATH_DOC, "cycle": CYCLE_DOC, "coloring": COLORING_DOC}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = command.format(**{name: str(tmp_path / f"{name}.json") for name in files}).split()
    code, loaded = run_probe(PROBE, *argv)
    assert (code, set(loaded)) == LOADS[command]


def test_import_loads_no_submodule():
    probe = "import json, sys, choosable; print(json.dumps(sorted(sys.modules)))"
    assert [name for name in run_probe(probe) if name.startswith("choosable")] == ["choosable"]


def test_every_public_name_is_its_home_modules_object():
    for name in choosable.__all__:
        value = getattr(choosable, name)
        home = importlib.import_module(f"choosable.{choosable._HOME[name]}")
        assert vars(home)[name] is value, name
        # a name the package defines is served from the module defining it
        if getattr(value, "__module__", "").startswith("choosable."):
            assert value.__module__ == home.__name__, name


def test_public_names_are_cached_on_first_use():
    for name in choosable.__all__:
        assert getattr(choosable, name) is vars(choosable)[name], name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from choosable import *", namespace)
    assert set(choosable.__all__) <= namespace.keys()
    assert set(choosable.__all__) <= set(dir(choosable))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'choosable' has no attribute 'nope'$"):
        choosable.nope
    with pytest.raises(ImportError):
        exec("from choosable import nope", {})


def test_rational_is_fraction():
    assert choosable.Rational is fractions.Fraction
    assert not hasattr(importlib.import_module("choosable.model"), "Rational")


def test_every_module_level_import_is_used():
    # no linter runs on the package, so an import left behind by a deletion
    # would go unseen; a name counts as used wherever it is read, in an
    # annotation too
    for path in sorted((SRC / "choosable").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
