"""Input is checked once, where it enters the package.

Every public operation on a path coerces its lists through ``Instance`` (or
``as_lists``) exactly once, whatever type the lists arrive in, and hands
the checked tuples inward; nothing below an entry point coerces again.
The command line checks only a document's shape and decides, scans,
searches or verifies the instance it parsed, so a command coerces its
lists once too.  Scalar parameters, interval ends and the
good-list bound each have one check that every entry shares, so they fail
alike wherever they enter, and a container of the wrong shape is invalid
input like a bad color.  A color of an ``int`` subclass is kept as a plain
``int``, and a search without a budget shares the oracle's default.
"""

import enum
import json
import re
import sys
from fractions import Fraction

import pytest

import choosable
from choosable import (
    ChoiceParameters,
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    NotGoodError,
    PreconditionError,
    SearchBudget,
    TransformReport,
    alpha_path,
    amplitude,
    as_lists,
    brute_force,
    brute_force_forced,
    construct_coloring_general,
    construct_coloring_waterfall,
    counterexample_list,
    decide_waterfall,
    decide_waterfall_prefix,
    endpoint_threshold,
    even_ceil,
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
from choosable.cli import build_parser, main
from choosable.oracle import _DEFAULT_BUDGET
from choosable.waterfall import _plan
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


# 1.0 and False equal 1 and 0, so a frozenset keeps only the first of a
# pair: each color is checked as given, in either order
HIDDEN = [[1, 1.0], [1.0, 1], [0, False], [False, 0], [2, 2.0, 3], [2, 3, 2.0]]


@pytest.mark.parametrize("entry", HIDDEN, ids=repr)
def test_a_duplicate_hides_no_color(entry):
    (bad,) = [color for color in entry if type(color) is not int]
    message = f"^colors must be non-negative integers, got {re.escape(repr(bad))}$"
    with pytest.raises(InvalidInputError, match=message):
        as_lists([entry])
    with pytest.raises(InvalidInputError, match=message):
        as_lists([iter(entry)])
    with pytest.raises(InvalidInputError, match=message):
        FreeChoiceInstance(Instance.cycle((1, 1, 1), [{0, 1, 2, 3}] * 3), 0, entry)


class Hue(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3
    NINE = 9


def _leaves(value):
    """Every leaf of nested tuples, frozensets and transform reports."""
    if isinstance(value, TransformReport):
        value = (value.run_renames, value.relabel_map, value.replacements)
    if isinstance(value, (tuple, frozenset)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_an_int_subclass_color_comes_back_an_int():
    # an IntEnum color equals and hashes like its int, so a frozenset would
    # keep it, and the kept plan would hand it to a later caller's equal lists
    plain = L({1}, {1, 2}, {1, 3}, {2, 3}, {9})
    hued = [[Hue(c) for c in sorted(entry)] for entry in plain]
    ones = (1,) * 5
    forced = FreeChoiceInstance(Instance.cycle((1, 1, 1), [list(Hue)[:3]] * 3), 0, [Hue.ONE])
    _plan.cache_clear()
    results = (
        Instance.path(ones, hued).lists,
        brute_force(Instance.path(ones, hued)).coloring,
        forced.forced,
        brute_force_forced(forced).coloring,
        to_waterfall(hued, ones),
        to_waterfall(plain, ones),
        to_waterfall(hued, ones),
    )
    assert _plan.cache_info().hits == 2
    assert {type(leaf) for leaf in _leaves(results)} == {int}


@pytest.mark.parametrize("bad", [True, 1.0, -1, "x"], ids=repr)
def test_an_int_subclass_hides_no_bad_color(bad):
    message = f"^colors must be non-negative integers, got {re.escape(repr(bad))}$"
    for entry in ([Hue.TWO, bad], [bad, Hue.TWO], [3, Hue.TWO, bad]):
        with pytest.raises(InvalidInputError, match=message):
            as_lists([entry])


TWO = Instance.path([1, 1], [[1, 2], [2, 3]])


@pytest.mark.parametrize(
    "first, bad",
    [([True], True), ([1.0], 1.0), ([1, True], True), (["x"], "x"), ([-1], -1)],
    ids=repr,
)
def test_a_coloring_color_is_checked_like_a_list_color(first, bad):
    # True and 1.0 equal color 1, so a subset test alone passes them
    coloring = [first, [2]]
    message = f"colors must be non-negative integers, got {bad!r}"
    for run in (
        lambda: validate_coloring(TWO, coloring),
        lambda: validate_coloring(TWO, [iter(entry) for entry in coloring]),
        lambda: pull_back_coloring(TransformReport(), coloring, TWO.lists, TWO.weights),
    ):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run()


def test_verify_refuses_a_negative_color(tmp_path, capsys):
    # the command line parses only integers into a coloring, so a negative
    # one is the only bad color that reaches the check
    instance, coloring = tmp_path / "two.json", tmp_path / "c.json"
    instance.write_text('{"graph": "path", "weights": [1, 1], "lists": [[1, 2], [2, 3]]}')
    coloring.write_text("[[-1], [2]]")
    assert main(["verify", str(instance), str(coloring)]) == 2
    message = "invalid input: colors must be non-negative integers, got -1\n"
    assert capsys.readouterr() == ("", message)


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
    # each rejected before it reaches ceil, which raises its own errors or
    # rounds a float
    "even_ceil(inf)": (
        lambda: even_ceil(float("inf")),
        "even_ceil needs a non-negative int or Fraction, got inf",
    ),
    "even_ceil(nan)": (
        lambda: even_ceil(float("nan")),
        "even_ceil needs a non-negative int or Fraction, got nan",
    ),
    "even_ceil(2.5)": (
        lambda: even_ceil(2.5),
        "even_ceil needs a non-negative int or Fraction, got 2.5",
    ),
    "even_ceil(True)": (
        lambda: even_ceil(True),
        "even_ceil needs a non-negative int or Fraction, got True",
    ),
    "even_ceil(-1/2)": (
        lambda: even_ceil(Fraction(-1, 2)),
        "even_ceil needs a non-negative int or Fraction, got Fraction(-1, 2)",
    ),
    "endpoint_threshold((5, 2), 3)": (
        lambda: endpoint_threshold((5, 2), 3),
        "params must be ChoiceParameters, got tuple",
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
        "report is not the transform of these lists",
    ),
}


@pytest.mark.parametrize("call", sorted(SCALARS))
def test_scalar_parameters_are_checked(call):
    run, message = SCALARS[call]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run()


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


@pytest.fixture
def budgets_made(monkeypatch):
    """Count ``SearchBudget`` constructions."""
    original = SearchBudget.__init__
    made = []

    def counted(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SearchBudget, "__init__", counted)
    return made


GOOD_PATH = Instance.path(ONES, GOOD)
SEARCHES = {
    "brute_force(inst)": lambda: brute_force(GOOD_PATH),
    "brute_force(inst, None)": lambda: brute_force(GOOD_PATH, None),
    "brute_force_forced(fi)": lambda: brute_force_forced(FORCED),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_search_without_a_budget_makes_none(search, budgets_made, as_lists_calls):
    # the default budget is one shared immutable record, and the instance
    # was checked when it was built
    assert SEARCHES[search]().colorable
    assert budgets_made == [] and as_lists_calls == []


def test_one_default_budget():
    assert _DEFAULT_BUDGET == SearchBudget() == SearchBudget(10_000_000)
    assert build_parser().parse_args(["oracle", "doc.json"]).budget == _DEFAULT_BUDGET.max_nodes


GOOD_DOC = json.dumps({"graph": "path", "weights": ONES, "lists": [sorted(x) for x in GOOD]})
GOOD_COLORING = json.dumps([sorted(x) for x in hall_check_path(GOOD, ONES).coloring])


@pytest.mark.parametrize("command", ["decide", "waterfall", "oracle", "verify"])
def test_one_command_coerces_its_lists_once(command, tmp_path, capsys, as_lists_calls):
    # the parsed instance is what the command decides, scans or searches,
    # not coerced again, and verify checks the coloring's colors in place
    path = tmp_path / "good.json"
    path.write_text(GOOD_DOC, encoding="utf-8")
    argv = [command, str(path)]
    if command == "verify":
        coloring = tmp_path / "coloring.json"
        coloring.write_text(GOOD_COLORING, encoding="utf-8")
        argv.append(str(coloring))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(as_lists_calls) == 1
