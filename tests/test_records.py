"""The package's record types are plain immutable values.

Each is compared by exact type and fields, hashed by its fields, shown as
``Name(field=value, ...)`` and refuses assignment and deletion.  None of
them is a tuple, and importing the command line pulls in no
``dataclasses`` machinery.
"""

import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from choosable import (
    Certificate,
    ChoiceParameters,
    Decision,
    FreeChoiceInstance,
    HallSummand,
    Instance,
    SearchBudget,
    TransformReport,
)

SRC = Path(__file__).resolve().parent.parent / "src"

CERT = "Certificate(i=0, j=1, amplitude_size=1, demand=2)"
CYCLE = (
    "Instance(topology=<Topology.CYCLE: 'cycle'>, weights=(1, 1, 1), "
    "lists=(frozenset({1}), frozenset({2}), frozenset({3})))"
)

# type, constructor arguments, exact repr
CASES = [
    (
        Instance,
        lambda: Instance.path((1, 2), [[1], [2, 3]]),
        "Instance(topology=<Topology.PATH: 'path'>, weights=(1, 2), "
        "lists=(frozenset({1}), frozenset({2, 3})))",
    ),
    (Certificate, lambda: Certificate(0, 1, 1, 2), CERT),
    (
        Decision,
        lambda: Decision(False, certificate=Certificate(0, 1, 1, 2)),
        f"Decision(colorable=False, coloring=None, certificate={CERT})",
    ),
    (
        HallSummand,
        lambda: HallSummand(3, (0, 2), 2),
        "HallSummand(color=3, subpath=(0, 2), alpha=2)",
    ),
    (ChoiceParameters, lambda: ChoiceParameters(5, 2), "ChoiceParameters(a=5, b=2)"),
    (
        FreeChoiceInstance,
        lambda: FreeChoiceInstance(Instance.cycle((1, 1, 1), [[1], [2], [3]]), 1, [2]),
        f"FreeChoiceInstance(cycle={CYCLE}, v0=1, forced=frozenset({{2}}))",
    ),
    (
        TransformReport,
        lambda: TransformReport(((1, 4, 2, 2),), ((1, 2),)),
        "TransformReport(run_renames=((1, 4, 2, 2),), relabel_map=((1, 2),), replacements=())",
    ),
    (SearchBudget, lambda: SearchBudget(7), "SearchBudget(max_nodes=7)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def names(cls):
    """The field names, in order: the constructor's parameters."""
    return list(inspect.signature(cls).parameters)


def fields(record):
    return tuple(getattr(record, name) for name in names(type(record)))


@pytest.mark.parametrize("cls, make, text", CASES, ids=IDS)
def test_fields_are_read_only(cls, make, text):
    record = make()
    for name in names(cls):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


@pytest.mark.parametrize("cls, make, text", CASES, ids=IDS)
def test_equal_by_exact_type_and_fields(cls, make, text):
    record, twin = make(), make()
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != fields(record)
    subclass = type(cls.__name__, (cls,), {})
    assert record != subclass(*fields(record))
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_record_is_no_tuple():
    cert = Certificate(0, 1, 1, 2)
    assert cert != (0, 1, 1, 2)
    assert HallSummand(1, 2, 3) != TransformReport(1, 2, 3)
    with pytest.raises(TypeError):
        cert[0]
    with pytest.raises(TypeError):
        i, j, amplitude, demand = cert


def test_defaults():
    assert TransformReport().relabel_map == ()
    assert SearchBudget().max_nodes == 10_000_000
    assert Decision(True, (frozenset(),)).certificate is None


def test_command_line_imports_no_dataclasses():
    probe = "import sys, choosable.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "False\n"
