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
directions, stage 3 thanks to the good-list bound.  The events of all
three stages depend only on the input's maximal color runs, so
``to_waterfall`` plans the whole ``TransformReport`` from them and then
replays it on the list; ``pull_back_coloring`` replays the same report to
carry a coloring of the transformed list back to the original one.

Fresh colors are chosen as the smallest integer larger than every color
seen so far, so outputs are deterministic and fresh labels never collide
with the input's amplitude.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .model import (
    Coloring,
    InternalInvariantError,
    Instance,
    InvalidInputError,
    ListAssignment,
    NotGoodError,
    _is_good,
    _is_waterfall,
    _proper,
    _Record,
    _set,
    validate_coloring,
)


class ColorRename(_Record):
    """Replace ``old`` by ``new`` in the lists of vertices ``start..end``."""

    __slots__ = ("old", "new", "start", "end")

    def __init__(self, old: int, new: int, start: int, end: int) -> None:
        _set(self, "old", old)
        _set(self, "new", new)
        _set(self, "start", start)
        _set(self, "end", end)


class TransformReport(_Record):
    """Record of one transform, sufficient to replay it and reverse it on colorings.

    ``run_renames`` are the fresh-color substitutions of stage 1 (reversible
    by plain renaming), ``relabel_map`` the stage 2 permutation as its
    non-identity ``(old, new)`` pairs in span order (applied to the
    normalized list, fresh colors included), and ``replacements`` the stage
    3 events in execution order, whose reversal needs the exchange argument
    in ``pull_back_coloring``.
    """

    __slots__ = ("run_renames", "relabel_map", "replacements")

    def __init__(
        self,
        run_renames: tuple[ColorRename, ...] = (),
        relabel_map: tuple[tuple[int, int], ...] = (),
        replacements: tuple[ColorRename, ...] = (),
    ) -> None:
        _set(self, "run_renames", run_renames)
        _set(self, "relabel_map", relabel_map)
        _set(self, "replacements", replacements)

    @property
    def fresh_colors(self) -> frozenset[int]:
        """Every issued fresh label, in the name it had when issued.

        These labels are disjoint from the input's amplitude.
        """
        return frozenset(r.new for r in self.run_renames + self.replacements)

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
    """
    inst = Instance.path(weights, lists)
    if not _is_good(inst.lists, inst.weights):
        raise NotGoodError(
            "list is not good: some interior vertex has |L(i)| < w(i) + w(i+1)"
        )
    report = _plan(inst.lists)
    result = tuple(frozenset(colors) for colors in _replay(inst.lists, report))
    if not _is_waterfall(result):
        raise InternalInvariantError("transform produced a non-waterfall list")
    return result, report


def _plan(L: ListAssignment) -> TransformReport:
    """The events of all three stages, read off the maximal color runs of ``L``.

    A list already in waterfall form gets the empty report.
    """
    runs: dict[int, list[list[int]]] = {}
    for v, colors in enumerate(L):
        for x in colors:
            own = runs.setdefault(x, [])
            if own and own[-1][1] == v - 1:
                own[-1][1] = v
            else:
                own.append([v, v])
    fresh = max(runs, default=-1) + 1

    # Stage 1: detached runs, left to right (ties by color), each get their
    # own fresh label.  spans holds (first, last, label) of every color of
    # the normalized list.
    run_renames = []
    spans = [(own[0][0], own[0][1], x) for x, own in runs.items()]
    for start, x, end in sorted((s, x, e) for x, own in runs.items() for s, e in own[1:]):
        run_renames.append(ColorRename(x, fresh, start, end))
        spans.append((start, end, fresh))
        fresh += 1
    if not run_renames and all(last - first < 2 for first, last, _ in spans):
        return TransformReport()

    # Stage 2: the k-th span in (first, last, label) order takes the k-th
    # smallest label, fresh run labels included.
    spans.sort()
    labels = sorted(label for _, _, label in spans)
    relabel = tuple((x, new) for (_, _, x), new in zip(spans, labels) if x != new)

    # Stage 3: labels now follow span order and each fresh label exceeds
    # every label before it, so first in, first out is the order of
    # "smallest long x".
    queue = deque(
        (new, first, last) for (first, last, _), new in zip(spans, labels) if last - first >= 2
    )
    replacements = []
    while queue:
        x, first, last = queue.popleft()
        replacements.append(ColorRename(x, fresh, first + 2, last))
        if last - first >= 4:
            queue.append((fresh, first + 2, last))
        fresh += 1
    return TransformReport(tuple(run_renames), relabel, tuple(replacements))


def _replay(L: ListAssignment, report: TransformReport) -> list[set[int]]:
    """The transformed list of ``L``, one mutable set per vertex."""
    work = [set(colors) for colors in L]
    for ev in report.run_renames:
        _rename(work, ev.old, ev.new, ev.start, ev.end)
    relabel = dict(report.relabel_map)
    work = [{relabel.get(x, x) for x in colors} for colors in work]
    for ev in report.replacements:
        _rename(work, ev.old, ev.new, ev.start, ev.end)
    return work


def _rename(lists: list[set[int]], old: int, new: int, start: int, end: int) -> None:
    """Replace ``old`` by ``new`` in the lists of vertices ``start..end``."""
    for v in range(start, end + 1):
        if old in lists[v]:
            lists[v].discard(old)
            lists[v].add(new)


def pull_back_coloring(
    report: TransformReport,
    c_waterfall: Iterable[Iterable[int]],
    original_lists: Iterable[Iterable[int]],
    weights: Iterable[int],
) -> Coloring:
    """Turn a coloring of the transformed list into one of the original list.

    The report is replayed on one working list, and the replacement events
    are then undone in place, last first, on that list and on the coloring
    together.  Undoing the event that traded color x
    for fresh color y on vertices i_x+2..j_x renames y back to x, except
    when x sits at vertex i_x+1 and y at vertex i_x+2 at the same time; then
    a swap color z is taken from L'(i_x+1), the working list at that moment,
    outside the three touched color sets, or failing that from what vertex
    i_x uses and vertex i_x+2 does not, and the three-way exchange restores
    properness.  The second swap color always exists for good lists;
    running out of candidates therefore raises ``InternalInvariantError``.
    """
    original = Instance.path(weights, original_lists)
    work = _replay(original.lists, report)
    c = [set(entry) for entry in c_waterfall]
    if not _proper(work, original.weights, c, original.edges()):
        raise InvalidInputError("coloring is not valid for the transformed list")

    for ev in reversed(report.replacements):
        x, y = ev.old, ev.new
        ix = ev.start - 2
        if x in c[ix + 1] and y in c[ix + 2]:
            blocked = c[ix] | c[ix + 1] | c[ix + 2]
            candidates = sorted(work[ix + 1] - blocked)
            if candidates:
                z = candidates[0]
            else:
                candidates = sorted((c[ix] - c[ix + 2]) & work[ix + 1])
                if not candidates:
                    raise InternalInvariantError(
                        f"no swap color at vertex {ix + 1} while undoing "
                        f"replacement of {x} by {y}"
                    )
                z = candidates[0]
                c[ix].discard(z)
                c[ix].add(x)
            c[ix + 1].discard(x)
            c[ix + 1].add(z)
        _rename(c, y, x, ev.start, ev.end)
        _rename(work, y, x, ev.start, ev.end)

    inverse = {new: old for old, new in report.relabel_map}
    c = [{inverse.get(x, x) for x in entry} for entry in c]
    for ev in reversed(report.run_renames):
        _rename(c, ev.new, ev.old, ev.start, ev.end)

    result = tuple(frozenset(entry) for entry in c)
    if not validate_coloring(original, result):
        raise InternalInvariantError("pulled-back coloring is invalid for the original list")
    return result
