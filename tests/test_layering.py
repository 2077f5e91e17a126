"""Import boundaries between the package's modules, read from their source.

The brute-force oracle is ground truth for the interval machinery, so it
must not use it; the Hall deciders and the cycle reduction, which make up
``decide``, must not lean on the waterfall transform, which is kept as a
checked artifact of the paper; the waterfall transform in turn uses only
the model, so its pull-back cannot borrow a decider it is checked against
(re-running the greedy would pass every validity check); and the reference
interval scan in ``tests/helpers.py`` must not borrow from the Hall
deciders it checks.  Each input hypothesis is written out in one place: the
integer test that excludes bools lives in ``model._int_at_least`` (the
command line calls it for a decision document's certificate fields, with
a parse-error wording of its own), the good-list
bound ``|L(i)| >= w(i) + w(i+1)`` in ``model._check_good``, and the interval
hypothesis ``0 <= i <= j < m`` in ``model._check_interval``.  A broken
invariant is raised only where a theorem of the paper, not the code just
run, is what rules it out.  The transformed list has one construction:
``_stages`` places each label as it plans it, and the pull-back plans its
lists again rather than replay the report it is given; an event is a
plain tuple, not a record.  ``waterfall._plan`` keeps its last plan, so a
round trip plans once, and it is the package's one memo.
``choosable waterfall`` writes the labels the stages place and the fresh
labels in the order they were issued, never the tuple of frozensets that
``to_waterfall`` returns or a sorted copy of ``fresh_colors``.  Functions
read the ``Topology`` members that ``model`` binds once.
"""

import ast
from pathlib import Path

import choosable

PACKAGE = Path(choosable.__file__).parent
HELPERS = Path(__file__).resolve().parent / "helpers.py"


def imported_modules(name):
    """Sibling modules that ``choosable.<name>`` imports directly."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "choosable" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1 and parts[0]:
                found.add(parts[0])
            elif node.level == 1 or parts == ["choosable"]:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and parts[0] == "choosable" and len(parts) > 1:
                found.add(parts[1])
    return found


def import_closure(name):
    """Sibling modules that ``choosable.<name>`` imports, directly or through others."""
    found, todo = set(), [name]
    while todo:
        for module in imported_modules(todo.pop()) - found:
            found.add(module)
            todo.append(module)
    return found


def test_oracle_stays_off_the_interval_machinery():
    assert import_closure("oracle") == {"model"}


def test_hall_does_not_import_waterfall():
    for name in ("hall", "cycles"):
        assert "waterfall" not in import_closure(name), name


def test_waterfall_imports_only_model():
    assert import_closure("waterfall") == {"model"}


def test_imports_are_seen():
    # the checks above pass vacuously if the parser misses imports
    assert "model" in imported_modules("oracle")
    assert "model" in imported_modules("hall")
    assert {"hall", "model"} <= imported_modules("cycles")


def test_reference_scan_stays_off_hall():
    tree = ast.parse(HELPERS.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            if node.module == "choosable":
                for alias in node.names:
                    value = getattr(choosable, alias.name)
                    names.add(getattr(value, "__module__", None) or value.__name__)
    assert "choosable" in names  # the walk sees the package import
    assert not any(name and name.startswith("choosable.hall") for name in names), names


def functions_where(test):
    """(module, function) of each node of a package function that passes ``test``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [(path.stem, func.name) for node in ast.walk(func) if test(node)]
    return found


def excludes_bool(node):
    """An ``or``/``and`` of ``isinstance(value, int)`` and ``isinstance(value, bool)``.

    That is the integer test; ``isinstance(value, bool)`` alone asks for a bool.
    """
    if not isinstance(node, ast.BoolOp):
        return False
    types = set()
    for value in node.values:
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not):
            value = value.operand
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "isinstance":
            types.add(getattr(value.args[1], "id", None))
    return {"int", "bool"} <= types


def compares_good_bound(node):
    """A comparison against ``w[i] + w[j]``: two entries of one sequence."""
    if not isinstance(node, ast.Compare):
        return False
    for side in [node.left, *node.comparators]:
        if (
            isinstance(side, ast.BinOp)
            and isinstance(side.op, ast.Add)
            and all(isinstance(term, ast.Subscript) for term in (side.left, side.right))
            and ast.dump(side.left.value) == ast.dump(side.right.value)
        ):
            return True
    return False


def compares_interval(node):
    """A chained ``<``/``<=`` comparison, as in ``0 <= i <= j < m``."""
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) > 1
        and all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
    )


def raises_broken_invariant(node):
    """A call that builds an ``InternalInvariantError``."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") == "InternalInvariantError"


def test_integer_test_has_one_owner():
    assert functions_where(excludes_bool) == [("model", "_int_at_least")]


def test_good_bound_has_one_owner():
    assert functions_where(compares_good_bound) == [("model", "_check_good")]


def test_interval_hypothesis_has_one_owner():
    assert functions_where(compares_interval) == [("model", "_check_interval")]


def test_broken_invariants_are_theorem_guards():
    # the sufficiency of Hall's condition on paths, and the good bound that
    # makes the pull-back's swap color exist and its sweep complete; what
    # the code has just built is not checked again
    assert functions_where(raises_broken_invariant) == [
        ("hall", "_decide"),
        ("waterfall", "pull_back_coloring"),
        ("waterfall", "pull_back_coloring"),
    ]


def test_to_waterfall_does_not_replay():
    # only the stages place labels, so no report is replayed into a second
    # list: the pull-back plans its lists as the transform does
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", "") == name

    assert sorted(functions_where(calls("_stages"))) == [
        ("cli", "cmd_waterfall"),
        ("waterfall", "_plan"),
    ]
    assert sorted(functions_where(calls("_plan"))) == [
        ("waterfall", "pull_back_coloring"),
        ("waterfall", "to_waterfall"),
    ]


def reads_topology_member(node):
    """``Topology.PATH`` or ``Topology.CYCLE``."""
    return (
        isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "Topology"
        and node.attr in ("PATH", "CYCLE")
    )


def test_topology_members_are_bound_once():
    # on Python 3.11 every ``Topology.PATH`` is an ``EnumType.__getattr__``
    # call, about three times a plain attribute read, and an instance is
    # built on every public call; so functions read ``model._PATH`` and
    # ``model._CYCLE``, which the module binds once
    assert functions_where(reads_topology_member) == []
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    assert sum(map(reads_topology_member, ast.walk(tree))) == 2  # the walk sees the binding


MEMOS = {"cache", "cached_property", "lru_cache"}


def test_one_memo_keeps_the_last_plan():
    # a round trip plans its lists once through a memo of one entry; a
    # second memo, or a size to tune, would keep inputs no caller holds
    decorators, names = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorators += [(path.stem, node.name, ast.unparse(d)) for d in node.decorator_list]
            if isinstance(node, ast.alias):
                name = node.name
            else:
                name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in MEMOS:
                names.append((path.stem, ast.unparse(node)))
    assert ("waterfall", "_plan", "lru_cache(maxsize=1)") in decorators
    # the import and the decorator, under their own names, and nothing else
    assert names == [("waterfall", "lru_cache"), ("waterfall", "lru_cache")]


def test_waterfall_events_are_no_records():
    # the report is the transform's one record; each event in it is an
    # (old, new, start, end) tuple, which costs no constructor call
    tree = ast.parse((PACKAGE / "waterfall.py").read_text(encoding="utf-8"))
    records = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", "") == "_Record" for base in node.bases)
    ]
    assert records == ["TransformReport"]


def test_waterfall_command_streams_from_the_stages():
    # to_waterfall would hold a frozenset per vertex while the document is
    # written, and fresh_colors a frozenset of every fresh label to sort
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    (command,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_waterfall"
    ]
    names = set()
    for node in ast.walk(command):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert {"_runs", "_stages", "run_renames"} <= names  # the walk sees what it writes
    assert not names & {"to_waterfall", "fresh_colors"}, names
    # the stages place every label, a list in waterfall form too, so the
    # command has no placement loop of its own
    assert not any(isinstance(node, ast.For) for node in ast.walk(command))
