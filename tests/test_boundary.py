"""Input is checked once, where it enters the package.

Every public operation on a path coerces its lists through ``Instance`` (or
``as_lists``) exactly once, whatever type the lists arrive in, and hands
the checked tuples inward; nothing below an entry point coerces again.
"""

import sys

import pytest

import choosable
from choosable import (
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    TransformReport,
    alpha_path,
    amplitude,
    construct_coloring_general,
    construct_coloring_waterfall,
    decide_waterfall,
    decide_waterfall_prefix,
    hall_check_path,
    hall_summands,
    is_good,
    is_waterfall,
    pull_back_coloring,
    solve_free_choice,
    to_waterfall,
)
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
