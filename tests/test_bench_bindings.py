"""The package names the benchmark reaches for still resolve.

``bench/spans.py`` wraps functions by (module, attribute) and ``bench/run.py``
calls public functions of the package; renaming or dropping one breaks
``bench/run.py --trace 1`` or a workload, and no other test would notice.
"""

import ast
import importlib

import choosable
from helpers import BENCH, bench_module


def resolve(module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_functions_resolve():
    spans = bench_module("spans")
    assert spans.SPANS and spans.COUNTS
    for module, attr, _ in spans.SPANS + spans.COUNTS:
        assert callable(resolve(module, attr)), (module, attr)


def names_run_calls():
    """``lib.<name>``, ``choosable.<path>`` and decider names in ``bench/run.py``.

    ``lib`` is the package in the operations and a plain list in the
    workload functions, so list methods are left out.  Deciders are named by
    string and fetched with ``getattr(lib, decider)``.
    """
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    lib, dotted = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = [node.attr]
            inner = node.value
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id == "choosable" and len(parts) > 1:
                dotted.add(".".join(reversed(parts)))
            if isinstance(node.value, ast.Name) and node.value.id == "lib":
                if not hasattr(list, node.attr):
                    lib.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "library_decide_op":
            decider = node.args[2]
            if isinstance(decider, ast.Constant):
                lib.add(decider.value)
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "deciders":
            lib.update(value.value for value in node.value.values)
    return lib, dotted


def test_library_calls_of_run_resolve():
    lib, dotted = names_run_calls()
    # the parser sees every kind of call
    assert {"Instance", "to_waterfall", "pull_back_coloring", "brute_force_forced"} <= lib
    assert {"hall_check_path", "decide_waterfall_prefix", "solve_free_choice"} <= lib
    assert "cli.main" in dotted
    for name in lib:
        assert callable(getattr(choosable, name, None)), name
    for path in dotted:
        assert callable(resolve("choosable", path)), path
