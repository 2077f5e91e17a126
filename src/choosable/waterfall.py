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
directions, stage 3 thanks to the good-list bound.  ``TransformReport``
records everything needed to carry a coloring of the transformed list back
to the original one via ``pull_back_coloring``.

Fresh colors are chosen as the smallest integer larger than every color
seen so far, so outputs are deterministic and fresh labels never collide
with the input's amplitude.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .model import (
    Coloring,
    InternalInvariantError,
    Instance,
    InvalidInputError,
    ListAssignment,
    NotGoodError,
    as_lists,
    as_weights,
    checked_path,
    is_good,
    is_waterfall,
    validate_coloring,
)


@dataclass(frozen=True)
class ColorSpan:
    """Occupancy interval of one color: first and last vertex carrying it.

    After run normalization the color appears on exactly the vertices
    ``first..last``; on arbitrary lists the interval may straddle gaps.
    """

    color: int
    first: int
    last: int


@dataclass(frozen=True)
class ColorRename:
    """Replace ``old`` by ``new`` in the lists of vertices ``start..end``."""

    old: int
    new: int
    start: int
    end: int


@dataclass(frozen=True)
class TransformReport:
    """Record of one transform, sufficient to reverse it on colorings.

    ``run_renames`` are the fresh-color substitutions of stage 1 (reversible
    by plain renaming), ``relabel_map`` the stage 2 permutation restricted to
    its non-identity pairs (applied to the normalized list, fresh colors
    included), and ``replacements`` the stage 3 events in execution order,
    whose reversal needs the exchange argument in ``pull_back_coloring``.
    ``fresh_colors`` holds every issued fresh label, in the name it had when
    issued; these labels are disjoint from the input's amplitude.
    """

    run_renames: tuple[ColorRename, ...] = ()
    relabel_map: dict[int, int] = field(default_factory=dict)
    replacements: tuple[ColorRename, ...] = ()
    fresh_colors: frozenset[int] = frozenset()

    @property
    def iterations(self) -> int:
        return len(self.replacements)


def color_spans(lists: Iterable[Iterable[int]]) -> tuple[ColorSpan, ...]:
    """Spans of all colors, ordered by (first, last, color)."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for v, colors in enumerate(as_lists(lists)):
        for x in colors:
            first.setdefault(x, v)
            last[x] = v
    return tuple(
        sorted(
            (ColorSpan(x, first[x], last[x]) for x in first),
            key=lambda s: (s.first, s.last, s.color),
        )
    )


def _occurrence_runs(L: ListAssignment) -> dict[int, list[tuple[int, int]]]:
    """Maximal runs of consecutive vertices per color, in vertex order."""
    runs: dict[int, list[tuple[int, int]]] = {}
    for v, colors in enumerate(L):
        for x in colors:
            if x in runs and runs[x][-1][1] == v - 1:
                start, _ = runs[x][-1]
                runs[x][-1] = (start, v)
            else:
                runs.setdefault(x, []).append((v, v))
    return runs


def _next_fresh(L: ListAssignment) -> int:
    return max((x for colors in L for x in colors), default=-1) + 1


def normalize_runs(
    lists: Iterable[Iterable[int]],
) -> tuple[ListAssignment, TransformReport]:
    """Rename detached reoccurrences so every color forms one consecutive run.

    Detached runs are processed left to right (ties broken by color) and each
    receives its own fresh color.  Renaming a fresh color back to the one it
    replaced turns any coloring of the output into a coloring of the input,
    so the two lists are similar for every weight function.
    """
    L = as_lists(lists)
    runs = _occurrence_runs(L)
    detached = sorted(
        (start, x, end) for x, rs in runs.items() for start, end in rs[1:]
    )
    if not detached:
        return L, TransformReport()

    fresh = _next_fresh(L)
    out = [set(colors) for colors in L]
    renames = []
    for start, x, end in detached:
        renames.append(ColorRename(x, fresh, start, end))
        for v in range(start, end + 1):
            out[v].discard(x)
            out[v].add(fresh)
        fresh += 1
    return (
        tuple(frozenset(colors) for colors in out),
        TransformReport(
            run_renames=tuple(renames),
            fresh_colors=frozenset(r.new for r in renames),
        ),
    )


def to_waterfall(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> tuple[ListAssignment, TransformReport]:
    """Transform a good list into a similar waterfall list of equal sizes.

    Raises ``NotGoodError`` when the good-list bound fails somewhere: the
    backward direction of the similarity argument needs it, so non-good
    lists are rejected rather than processed best-effort.
    """
    L, w = checked_path(lists, weights)
    if not is_good(L, w):
        raise NotGoodError(
            "list is not good: some interior vertex has |L(i)| < w(i) + w(i+1)"
        )
    if is_waterfall(L):
        return L, TransformReport()

    norm, norm_report = normalize_runs(L)

    # Relabel so numeric label order matches span order: the k-th span in
    # (first, last, color) order takes the k-th smallest label.  The
    # permutation acts on the normalized list, so fresh run labels take part.
    spans = color_spans(norm)
    labels = sorted(s.color for s in spans)
    relabel = {s.color: new for s, new in zip(spans, labels) if s.color != new}
    work = [{relabel.get(x, x) for x in colors} for colors in norm]

    # Labels now follow span order and each fresh label exceeds every label
    # before it, so first in, first out is the order of "smallest long x".
    queue = deque(
        (new, s.first, s.last) for s, new in zip(spans, labels) if s.last - s.first >= 2
    )
    fresh = _next_fresh(norm)
    replacements = []
    while queue:
        x, first, last = queue.popleft()
        replacements.append(ColorRename(x, fresh, first + 2, last))
        _rename(work, x, fresh, first + 2, last)
        if last - first >= 4:
            queue.append((fresh, first + 2, last))
        fresh += 1

    result = tuple(frozenset(colors) for colors in work)
    if not is_waterfall(result):
        raise InternalInvariantError("transform produced a non-waterfall list")
    return result, TransformReport(
        run_renames=norm_report.run_renames,
        relabel_map=relabel,
        replacements=tuple(replacements),
        fresh_colors=norm_report.fresh_colors | frozenset(r.new for r in replacements),
    )


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

    The forward transform is replayed on one working list, and the
    replacement events are then undone in place, last first, on that list
    and on the coloring together.  Undoing the event that traded color x
    for fresh color y on vertices i_x+2..j_x renames y back to x, except
    when x sits at vertex i_x+1 and y at vertex i_x+2 at the same time; then
    a swap color z is taken from L'(i_x+1), the working list at that moment,
    outside the three touched color sets, or failing that from what vertex
    i_x uses and vertex i_x+2 does not, and the three-way exchange restores
    properness.  The second swap color always exists for good lists;
    running out of candidates therefore raises ``InternalInvariantError``.
    """
    L0 = as_lists(original_lists)
    w = as_weights(weights)

    work = [set(colors) for colors in L0]
    for ev in report.run_renames:
        _rename(work, ev.old, ev.new, ev.start, ev.end)
    work = [{report.relabel_map.get(x, x) for x in colors} for colors in work]
    for ev in report.replacements:
        _rename(work, ev.old, ev.new, ev.start, ev.end)

    final = Instance.path(w, tuple(frozenset(colors) for colors in work))
    c = [set(entry) for entry in c_waterfall]
    if not validate_coloring(final, c):
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

    inverse = {new: old for old, new in report.relabel_map.items()}
    c = [{inverse.get(x, x) for x in entry} for entry in c]
    for ev in reversed(report.run_renames):
        _rename(c, ev.new, ev.old, ev.start, ev.end)

    result = tuple(frozenset(entry) for entry in c)
    if not validate_coloring(Instance.path(w, L0), result):
        raise InternalInvariantError("pulled-back coloring is invalid for the original list")
    return result
