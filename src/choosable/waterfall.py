"""Rewrite a good list into a similar waterfall list, and back.

The transform works in three recorded stages:

1. run normalization: whenever a color reappears after a gap, the detached
   run is renamed to a fresh color, so afterwards every color occupies one
   block of consecutive vertices;
2. relabeling: colors are permuted so that the numeric order of the labels
   agrees with the lexicographic order of their occupancy intervals;
3. the replace loop: while some color x spans three or more vertices
   i_x..j_x, the smallest such x is replaced by a fresh color on vertices
   i_x+2..j_x.  After stage 2 this is the paper's rule run as a queue: long
   colors wait in span order, and a fresh color still spanning three or
   more vertices joins at the back.

Each stage preserves per-vertex list sizes and colorability in both
directions, stage 3 thanks to the good-list bound.  The report is plain
data: stages 1 and 3 as ``(old, new, start, end)`` tuples, "old becomes
new on vertices start..end", and stage 2 as ``(old, new)`` pairs.  The
events of all three stages depend only on the input's maximal color runs:
``_runs`` scans them, and ``_stages`` plans the stages from the runs alone
and places each label as it is issued, so once the scan is done the input
list is no longer needed; the command line drops its instance there.
Read in input colors, a coloring of the transformed list conflicts only
where two labels of one run meet, and ``pull_back_coloring``, replaying
the report it is given in one checked walk, repairs those places in one
right-to-left sweep.

Fresh colors are chosen as the smallest integer larger than every color
seen so far, so outputs are deterministic and fresh labels never collide
with the input's amplitude.  One counter issues them, stage 1's before
stage 3's, so the ``new`` labels of ``run_renames`` and then
``replacements`` ascend: they are ``fresh_colors`` in order, and the
command line writes them so, with no sort.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable

from .model import (
    Coloring,
    InternalInvariantError,
    Instance,
    InvalidInputError,
    ListAssignment,
    _check_good,
    _check_interval,
    _proper,
    _Record,
    _set,
    validate_coloring,
)

Rename = tuple[int, int, int, int]  # (old, new, start, end): old becomes new on start..end


class TransformReport(_Record):
    """Record of one transform, sufficient to replay it and reverse it on colorings.

    ``run_renames`` are the fresh-color substitutions of stage 1 (reversible
    by plain renaming), ``relabel_map`` the stage 2 permutation as its
    non-identity ``(old, new)`` pairs in span order (applied to the
    normalized list, fresh colors included), and ``replacements`` the stage
    3 events in execution order.  Each event of stages 1 and 3 is an
    ``(old, new, start, end)`` tuple: ``old`` becomes ``new`` in the lists
    of vertices ``start..end``.  Stage 3 alone is not undone by renaming:
    where two labels of one run meet, a coloring needs an exchange.
    """

    __slots__ = ("run_renames", "relabel_map", "replacements")

    def __init__(
        self,
        run_renames: tuple[Rename, ...] = (),
        relabel_map: tuple[tuple[int, int], ...] = (),
        replacements: tuple[Rename, ...] = (),
    ) -> None:
        _set(self, "run_renames", run_renames)
        _set(self, "relabel_map", relabel_map)
        _set(self, "replacements", replacements)

    @property
    def fresh_colors(self) -> frozenset[int]:
        """Every issued fresh label, in the name it had when issued.

        These labels are disjoint from the input's amplitude.
        """
        return frozenset(new for _, new, _, _ in self.run_renames + self.replacements)

    @property
    def iterations(self) -> int:
        return len(self.replacements)


def to_waterfall(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> tuple[ListAssignment, TransformReport]:
    """Transform a good list into a similar waterfall list of equal sizes.

    Raises ``NotGoodError`` when the good-list bound fails somewhere: the
    backward direction of the similarity argument needs it, so non-good
    lists are rejected rather than processed best-effort.

    The result is in waterfall form by construction, so it is returned
    unchecked: stage 1 leaves each color on one run of vertices, and stage
    3 cuts every run of three or more vertices into labels that each cover
    at most two consecutive vertices.
    """
    inst = Instance.path(weights, lists)
    _check_good(inst.lists, inst.weights)
    return _plan(inst.lists)


def _plan(L: ListAssignment) -> tuple[ListAssignment, TransformReport]:
    """The transformed list and its report: the stages run on the maximal runs of ``L``.

    A list already in waterfall form comes back equal, as new frozensets,
    with the empty report.
    """
    out, report = _stages(_runs(L), len(L))
    for v, colors in enumerate(out):
        out[v] = frozenset(colors)
    return tuple(out), report


def _runs(L: ListAssignment) -> list[tuple[int, int, int]]:
    """(first, color, last) of each maximal color run of ``L``, sorted.

    A color lost from one list to the next closes its run, a gained one opens one.
    """
    runs = []
    opened: dict[int, int] = {}
    prev: frozenset[int] = frozenset()
    for v, colors in enumerate(L + (frozenset(),)):
        for x in prev - colors:
            runs.append((opened.pop(x), x, v - 1))
        for x in colors - prev:
            opened[x] = v
        prev = colors
    runs.sort()
    return runs


def _stages(
    runs: list[tuple[int, int, int]], m: int
) -> tuple[list[list[int]], TransformReport]:
    """Each vertex's labels and the report, planned from the sorted runs of an ``m``-vertex list.

    Stage 1 rewrites ``runs`` into the spans, (first, last, label), in
    place, so the scan's result is never held twice, and stage 3 empties
    ``runs``.  A list in waterfall form keeps its colors as labels, so its
    vertices get their own colors back with the empty report.  Each
    vertex's labels are in the order they were placed, not sorted.
    """
    # Stage 1: detached runs, left to right (ties by color), each get their
    # own fresh label.  Fresh labels count up from above every input color,
    # so only input colors need to be remembered.
    first_fresh = fresh = max((x for _, x, _ in runs), default=-1) + 1
    run_renames, seen = [], set()
    for k, (first, x, last) in enumerate(runs):
        if x in seen:
            run_renames.append((x, fresh, first, last))
            x, fresh = fresh, fresh + 1
        else:
            seen.add(x)
        runs[k] = (first, last, x)
    spans = runs

    # Stage 2: the k-th span in (first, last, label) order takes the k-th
    # smallest label: the input colors in order, then the fresh ones.
    spans.sort()
    labels = chain(sorted(seen), range(first_fresh, fresh))
    if not run_renames and all(last - first < 2 for first, last, _ in spans):
        labels = [x for _, _, x in spans]  # waterfall form: no event to order
    del seen
    relabel = []
    for k, ((first, last, x), new) in enumerate(zip(spans, labels)):
        if x != new:
            relabel.append((x, new))
        spans[k] = (new, first, last)

    # Stage 3: labels now follow span order and each fresh label exceeds
    # every label before it, so first in, first out is the order of
    # "smallest long x".
    queue = deque(spans)
    spans.clear()
    out: list[list[int]] = [[] for _ in range(m)]
    replacements = []
    while queue:
        x, first, last = queue.popleft()
        out[first].append(x)
        if last > first:
            out[first + 1].append(x)
        if last - first >= 2:
            replacements.append((x, fresh, first + 2, last))
            queue.append((fresh, first + 2, last))
            fresh += 1
    return out, TransformReport(tuple(run_renames), tuple(relabel), tuple(replacements))


def _replay(L: ListAssignment, report: TransformReport) -> tuple[list[set[int]], dict[int, int]]:
    """The transformed list of ``L`` under a caller's report, and each issued label's input color.

    The list has one mutable set per vertex; every issued label stands for
    one run of its input color.  A report that is not a ``TransformReport``
    of ``(old, new, start, end)`` events and ``(old, new)`` pairs, or that
    has an event off the path, raises ``InvalidInputError``.  Linear: a
    replacement relabels only the first two vertices of its span; the rest
    of the run keeps its stage 2 label until its chain reaches it.
    """
    shape = "a report must be a TransformReport of (old, new, start, end) and (old, new) tuples"
    if not isinstance(report, TransformReport):
        raise InvalidInputError(f"{shape}: got {type(report).__name__}")
    try:  # each relabel entry unpacks into two fields, each event into four
        relabel = {old: new for old, new in report.relabel_map}
        ends = [(start, end) for _, _, start, end in (*report.run_renames, *report.replacements)]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{shape}: {exc}") from None
    for start, end in ends:
        _check_interval(start, end, len(L))

    work = [set(colors) for colors in L]
    try:  # an unhashable label fails where it is first hashed
        source: dict[int, int] = {}
        for old, new, start, end in report.run_renames:
            source[new] = old
            for colors in work[start : end + 1]:
                if old in colors:
                    colors.remove(old)
                    colors.add(new)
        if relabel:
            work = [{relabel.get(x, x) for x in colors} for colors in work]
            source |= {new: source.get(old, old) for old, new in relabel.items()}
        root: dict[int, int] = {}  # stage 3 label -> the stage 2 label of its run
        for old, new, start, end in report.replacements:
            old = root[new] = root.get(old, old)
            source[new] = source.get(old, old)
            for colors in work[start : min(start + 1, end) + 1]:
                if old in colors:
                    colors.remove(old)
                    colors.add(new)
    except TypeError as exc:
        raise InvalidInputError(f"{shape}: {exc}") from None
    return work, source


def pull_back_coloring(
    report: TransformReport,
    c_waterfall: Iterable[Iterable[int]],
    original_lists: Iterable[Iterable[int]],
    weights: Iterable[int],
) -> Coloring:
    """Turn a coloring of the transformed list into one of the original list.

    Read in input colors, the coloring conflicts only where two labels of one
    run's stage 3 chain meet: a color x at v and v+1, v = i_x + 2k + 1.  One
    sweep repairs these, v = m-2 down to 1, each shared x in ascending order:
    the smallest z of L(v) - c(v-1) - c(v) - c(v+1) replaces x at v, or else
    the smallest z of (c(v-1) & L(v)) - c(v) - c(v+1) trades places with x
    between v-1 and v, which x's run covers, so only v-2 and v-1 can then
    share x.  That z exists by the good bound |L(v)| >= w(v) + w(v+1): c(v)
    and c(v+1) share x, so they hold at most w(v) + w(v+1) - 1 colors.

    So a list that is not good raises ``NotGoodError``.  ``report`` must be
    the one ``to_waterfall`` returned for these lists and weights: its shape
    and its events' vertex ranges are checked as it is read, and where the
    pull-back fails, a report that is not the transform of these lists
    raises ``InvalidInputError``.
    """
    original = Instance.path(weights, original_lists)
    L = original.lists
    _check_good(L, original.weights)
    work, source = _replay(L, report)
    c = _proper(work, original.weights, c_waterfall, original.edges())
    if c is None:
        raise InvalidInputError("coloring is not valid for the transformed list")

    c = [{source.get(x, x) for x in entry} for entry in c]
    for v in range(len(c) - 2, 0, -1):
        for x in sorted(c[v] & c[v + 1]):
            z = min(L[v] - c[v - 1] - c[v] - c[v + 1], default=None)
            if z is None:
                swap = (c[v - 1] & L[v]) - c[v] - c[v + 1]
                if not swap:
                    raise _failure(L, report, f"no swap color for {x} at vertex {v}")
                z = min(swap)
                c[v - 1] ^= {x, z}
            c[v] ^= {x, z}

    result = tuple(frozenset(entry) for entry in c)
    if not validate_coloring(original, result):
        raise _failure(L, report, "pulled-back coloring is invalid for the original list")
    return result


def _failure(L: ListAssignment, report: TransformReport, message: str) -> Exception:
    """Bad input if ``report`` is not the plan of ``L``, else a broken invariant.

    With the plan of ``L`` the pull-back cannot fail: the good bound makes
    every swap color exist, and the sweep then leaves no two labels of one
    run meeting.  Only a failed pull-back re-plans, so a valid report costs
    nothing extra.
    """
    if _plan(L)[1] != report:
        return InvalidInputError("report is not the transform of these lists")
    return InternalInvariantError(message)
