"""Input is checked once, where it enters the package.

Every public operation on a path coerces its lists through ``Instance`` (or
``as_lists``) exactly once, whatever type the lists arrive in, and hands
the checked tuples inward; nothing below an entry point coerces again.
The command line decides or scans the instance it parsed, so a command
coerces its lists once too.  Scalar parameters, interval ends and the
good-list bound each have one check that every entry shares, so they fail
alike wherever they enter, and a container of the wrong shape is invalid
input like a bad color.
"""

import json
import re
import sys

import pytest

import choosable
from choosable import (
    ChoiceParameters,
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    NotGoodError,
    PreconditionError,
    TransformReport,
    alpha_path,
    amplitude,
    construct_coloring_general,
    construct_coloring_waterfall,
    counterexample_list,
    decide_waterfall,
    decide_waterfall_prefix,
    endpoint_threshold,
    fchr,
    hall_check_path,
    hall_summands,
    is_free_choosable,
    is_good,
    is_waterfall,
    pull_back_coloring,
    solve_free_choice,
    to_waterfall,
    validate_coloring,
)
from choosable.cli import main
from helpers import L

BAD_COLORS = [-2, True, "a"]

ENTRIES = {
    "Instance.path": lambda lists: Instance.path((1,) * len(lists), lists),
    "hall_check_path": lambda lists: hall_check_path(lists, (1,) * len(lists)),
    "decide_waterfall": lambda lists: decide_waterfall(lists, (1,) * len(lists)),
    "to_waterfall": lambda lists: to_waterfall(lists, (0,) * len(lists)),
    "is_waterfall": is_waterfall,
    "pull_back_coloring": lambda lists: pull_back_coloring(
        TransformReport(), [set()] * len(lists), lists, (0,) * len(lists)
    ),
}


@pytest.mark.parametrize("bad", BAD_COLORS, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_checked_tuple_type_is_no_pass(entry, bad):
    # a tuple of frozensets is the checked type, but holding it proves nothing
    lists = (frozenset({bad}),) * 3
    with pytest.raises(InvalidInputError, match="non-negative integers"):
        ENTRIES[entry](lists)


def test_forced_true_is_no_color():
    # True equals 1, so a subset test against a list holding 1 lets it through
    with pytest.raises(InvalidInputError, match="non-negative integers"):
        FreeChoiceInstance(Instance.cycle((1, 1, 1), [{0, 1}] * 3), 0, {True})


THREE = L({1}, {1, 2}, {1, 3})
SCALARS = {
    "ChoiceParameters(True, 1)": (
        lambda: ChoiceParameters(True, 1),
        "a must be a positive integer, got True",
    ),
    "ChoiceParameters(2.5, 1)": (
        lambda: ChoiceParameters(2.5, 1),
        "a must be a positive integer, got 2.5",
    ),
    "ChoiceParameters(3, 0)": (
        lambda: ChoiceParameters(3, 0),
        "b must be a positive integer, got 0",
    ),
    "is_free_choosable(5.5, 2, 4)": (
        lambda: is_free_choosable(5.5, 2, 4),
        "a must be a positive integer, got 5.5",
    ),
    "is_free_choosable(5, 2, True)": (
        lambda: is_free_choosable(5, 2, True),
        "cycle length n must be an integer >= 3, got True",
    ),
    "endpoint_threshold(ChoiceParameters(5, 2), 3.5)": (
        lambda: endpoint_threshold(ChoiceParameters(5, 2), 3.5),
        "n must be a non-negative integer, got 3.5",
    ),
    "fchr(4.5)": (
        lambda: fchr(4.5),
        "cycle length n must be an integer >= 3, got 4.5",
    ),
    'FreeChoiceInstance("x", 0, {1})': (
        lambda: FreeChoiceInstance("x", 0, {1}),
        "free choice instances are rooted in cycles",
    ),
    "counterexample_list(4.0, 2, 4)": (
        lambda: counterexample_list(4.0, 2, 4),
        "a must be a positive integer, got 4.0",
    ),
    # True equals 1, so a range test alone lets it through as an interval end
    "alpha_path(L, True, 1, 1)": (
        lambda: alpha_path(THREE, True, 1, 1),
        "interval (True, 1) out of range for 3 vertices, got True",
    ),
    "alpha_path(L, 0.5, 1, 1)": (
        lambda: alpha_path(THREE, 0.5, 1, 1),
        "interval (0.5, 1) out of range for 3 vertices, got 0.5",
    ),
    # True and 1.0 hash like color 1, so a lookup alone finds its runs
    "alpha_path(L, 0, 0, True)": (
        lambda: alpha_path(THREE, 0, 0, True),
        "colors must be non-negative integers, got True",
    ),
    "alpha_path(L, 0, 0, 1.0)": (
        lambda: alpha_path(THREE, 0, 0, 1.0),
        "colors must be non-negative integers, got 1.0",
    ),
    "alpha_path(L, 0, 0, 'x')": (
        lambda: alpha_path(THREE, 0, 0, "x"),
        "colors must be non-negative integers, got 'x'",
    ),
    "amplitude(L, 0, 1.0)": (
        lambda: amplitude(THREE, 0, 1.0),
        "interval (0, 1.0) out of range for 3 vertices, got 1.0",
    ),
    "hall_summands(L, 2, 1)": (
        lambda: hall_summands(THREE, 2, 1),
        "interval (2, 1) out of range for 3 vertices",
    ),
    "pull_back_coloring((1, 9, 0.5, 1))": (
        lambda: pull_back_coloring(
            TransformReport(replacements=((1, 9, 0.5, 1),)),
            L({1}, {2}, {3}),
            THREE,
            (1, 1, 1),
        ),
        "interval (0.5, 1) out of range for 3 vertices, got 0.5",
    ),
}


@pytest.mark.parametrize("call", sorted(SCALARS))
def test_scalar_parameters_are_checked(call):
    run, message = SCALARS[call]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run()


REPORT_SHAPE = "a report must be a TransformReport of (old, new, start, end) and (old, new) tuples"
SHAPES = {
    "Instance.path([1], [5])": (
        lambda: Instance.path([1], [5]),
        "lists must be collections of colors",
    ),
    "Instance.path([1], [[[1]]])": (
        lambda: Instance.path([1], [[[1]]]),
        "lists must be collections of colors",
    ),
    "Instance.path(5, [[1]])": (
        lambda: Instance.path(5, [[1]]),
        "weights must be a collection of integers",
    ),
    "FreeChoiceInstance(cycle, 0, 5)": (
        lambda: FreeChoiceInstance(Instance.cycle((1, 1, 1), [{0, 1}] * 3), 0, 5),
        "lists must be collections of colors",
    ),
    "validate_coloring(inst, [[[1]]])": (
        lambda: validate_coloring(Instance.path([1], [[1]]), [[[1]]]),
        "a coloring must be collections of colors",
    ),
    'pull_back_coloring("x")': (
        lambda: pull_back_coloring("x", L({1}, {2}, {3}), THREE, (1, 1, 1)),
        REPORT_SHAPE,
    ),
    "pull_back_coloring(replacements=(5,))": (
        lambda: pull_back_coloring(
            TransformReport(replacements=(5,)), L({1}, {2}, {3}), THREE, (1, 1, 1)
        ),
        REPORT_SHAPE,
    ),
    "pull_back_coloring(relabel_map=((1,),))": (
        lambda: pull_back_coloring(
            TransformReport(relabel_map=((1,),)), L({1}, {2}, {3}), THREE, (1, 1, 1)
        ),
        REPORT_SHAPE,
    ),
    # a label that cannot be hashed, in each place a label is first hashed
    "pull_back_coloring(run_renames=(([1], 9, 0, 0),))": (
        lambda: pull_back_coloring(
            TransformReport(run_renames=(([1], 9, 0, 0),)), L({1}, {2}, {3}), THREE, (1, 1, 1)
        ),
        REPORT_SHAPE,
    ),
    "pull_back_coloring(replacements=((1, [9], 2, 2),))": (
        lambda: pull_back_coloring(
            TransformReport(replacements=((1, [9], 2, 2),)), L({1}, {2}, {3}), THREE, (1, 1, 1)
        ),
        REPORT_SHAPE,
    ),
    "pull_back_coloring(relabel_map=((1, [9]),))": (
        lambda: pull_back_coloring(
            TransformReport(relabel_map=((1, [9]),)), L({1}, {2}, {3}), THREE, (1, 1, 1)
        ),
        REPORT_SHAPE,
    ),
}


@pytest.mark.parametrize("call", sorted(SHAPES))
def test_container_shape_is_checked(call):
    # Python's own error text, or the type of what was given, follows the prefix
    run, prefix = SHAPES[call]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(prefix)}: "):
        run()


def test_short_cycle_is_a_precondition():
    message = "cycle length n must be an integer >= 3, got 2"
    for call in (lambda: fchr(2), lambda: counterexample_list(4, 2, 2)):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            call()


# good except at vertex 2, and in waterfall form for the prefix decider
NOT_GOOD = L({1}, {1, 2}, {3}, {3, 4}, {5})
GOOD_BOUND_ENTRIES = {
    "to_waterfall": lambda w: to_waterfall(NOT_GOOD, w),
    "decide_waterfall_prefix": lambda w: decide_waterfall_prefix(NOT_GOOD, w),
    "pull_back_coloring": lambda w: pull_back_coloring(
        TransformReport(), L({1}, {2}, {3}, {4}, {5}), NOT_GOOD, w
    ),
}


@pytest.mark.parametrize("entry", sorted(GOOD_BOUND_ENTRIES))
def test_good_bound_names_the_first_vertex_off_it(entry):
    message = "list is not good: interior vertex 2 has |L(2)| = 1 < w(2) + w(3) = 2"
    assert not is_good(NOT_GOOD, (1,) * 5)
    with pytest.raises(NotGoodError, match=f"^{re.escape(message)}$"):
        GOOD_BOUND_ENTRIES[entry]((1,) * 5)


@pytest.fixture
def as_lists_calls(monkeypatch):
    """Count ``as_lists`` calls through every ``choosable`` module binding it."""
    original = choosable.model.as_lists
    calls = []

    def counted(lists):
        calls.append(lists)
        return original(lists)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "choosable":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


# good, not waterfall, and every stage of the transform has an event
GOOD = L({1}, {1, 2}, {1, 3}, {2, 3}, {9})
ONES = (1,) * 5
MOVED, REPORT = to_waterfall(GOOD, ONES)
MOVED_COLORING = hall_check_path(MOVED, ONES).coloring
WATERFALL = L({1, 2}, {2, 3}, {3, 4})
FORCED = FreeChoiceInstance(Instance.cycle((1, 1, 1), [{1, 2}, {1, 2, 3}, {2, 3}]), 0, {1})

CALLS = {
    "Instance.path": lambda: Instance.path(ONES, GOOD),
    "hall_check_path": lambda: hall_check_path(GOOD, ONES),
    "hall_check_path, no": lambda: hall_check_path(L({1}, {1}), (1, 1)),
    "decide_waterfall": lambda: decide_waterfall(WATERFALL, (1, 1, 1)),
    "decide_waterfall_prefix": lambda: decide_waterfall_prefix(WATERFALL, (1, 1, 1)),
    "construct_coloring_general": lambda: construct_coloring_general(GOOD, ONES),
    "construct_coloring_waterfall": lambda: construct_coloring_waterfall(WATERFALL, (1, 1, 1)),
    "to_waterfall": lambda: to_waterfall(GOOD, ONES),
    "pull_back_coloring": lambda: pull_back_coloring(REPORT, MOVED_COLORING, GOOD, ONES),
    "is_good": lambda: is_good(GOOD, ONES),
    "is_waterfall": lambda: is_waterfall(GOOD),
    "amplitude": lambda: amplitude(GOOD, 1, 3),
    "alpha_path": lambda: alpha_path(GOOD, 0, 4, 1),
    "hall_summands": lambda: hall_summands(GOOD, 0, 4),
    "solve_free_choice": lambda: solve_free_choice(FORCED),
}


@pytest.mark.parametrize("entry", sorted(CALLS))
def test_one_call_coerces_its_lists_once(entry, as_lists_calls):
    CALLS[entry]()
    assert len(as_lists_calls) == 1


GOOD_DOC = json.dumps({"graph": "path", "weights": ONES, "lists": [sorted(x) for x in GOOD]})


@pytest.mark.parametrize("command", ["decide", "waterfall"])
def test_one_command_coerces_its_lists_once(command, tmp_path, capsys, as_lists_calls):
    # the parsed instance is what the command decides or scans, not coerced again
    path = tmp_path / "good.json"
    path.write_text(GOOD_DOC, encoding="utf-8")
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert len(as_lists_calls) == 1
