"""Colorability of weighted paths via Hall's condition.

For a connected induced subgraph H of the path, Hall's condition asks the
sum over colors k of the independence number of the vertices of H whose
lists contain k to be at least the total weight of H.  On paths the
condition over all subpaths is not only necessary but sufficient, which
turns colorability into interval counting.

Every coloring comes from one linear left-to-right greedy that keeps the
condition on the rest of the path, so it colors exactly the colorable
paths; the interval scan runs only to explain a "no".  On waterfall lists
every color contributes exactly one to the sum, so the alpha sum collapses
to the amplitude size and the check gets cheap; with the good-list bound it
collapses further to the prefix intervals alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import (
    Certificate,
    Coloring,
    Decision,
    InternalInvariantError,
    Instance,
    InvalidInputError,
    ListAssignment,
    NotWaterfallError,
    PreconditionError,
    Weights,
    amplitude,
    as_lists,
    as_weights,
    is_waterfall,
    validate_coloring,
)


@dataclass(frozen=True)
class HallSummand:
    """One color's contribution to the Hall sum of a subpath."""

    color: int
    subpath: tuple[int, int]
    alpha: int


def alpha_path(lists: Iterable[Iterable[int]], i: int, j: int, k: int) -> int:
    """Independence number of the vertices of ``i..j`` whose lists contain ``k``.

    The induced subgraph is a disjoint union of subpaths, so the value is the
    sum of ``ceil(run_length / 2)`` over the maximal runs of consecutive
    vertices carrying ``k``.
    """
    L = as_lists(lists)
    if not 0 <= i <= j < len(L):
        raise InvalidInputError(f"interval ({i}, {j}) out of range for {len(L)} vertices")
    total = 0
    run = 0
    for v in range(i, j + 1):
        if k in L[v]:
            run += 1
        else:
            total += (run + 1) // 2
            run = 0
    return total + (run + 1) // 2


def hall_summands(lists: Iterable[Iterable[int]], i: int, j: int) -> tuple[HallSummand, ...]:
    """Per-color alpha contributions for the subpath ``i..j``, sorted by color."""
    L = as_lists(lists)
    return tuple(
        HallSummand(k, (i, j), alpha_path(L, i, j, k))
        for k in sorted(amplitude(L, i, j))
    )


def _checked(lists, weights) -> tuple[ListAssignment, Weights]:
    L = as_lists(lists)
    w = as_weights(weights)
    if len(L) != len(w):
        raise InvalidInputError(f"{len(w)} weights for {len(L)} lists")
    if len(L) == 0:
        raise InvalidInputError("at least one vertex required")
    return L, w


def hall_check_path(lists: Iterable[Iterable[int]], weights: Iterable[int]) -> Decision:
    """Decide colorability of a weighted path by Hall's condition on its subpaths.

    The greedy colors the path whenever the condition holds.  When it runs
    short, the interval scan supplies the certificate: the lexicographically
    smallest violating interval together with its alpha sum and demand.
    """
    L, w = _checked(lists, weights)
    coloring = _greedy(L, w)
    if coloring is not None:
        return Decision(True, coloring=_validated(L, w, coloring))
    certificate = _hall_scan(L, w)
    if certificate is None:
        raise InternalInvariantError("the greedy ran short on lists that pass Hall's condition")
    return Decision(False, certificate=certificate)


def _hall_scan(L: ListAssignment, w: Weights) -> Certificate | None:
    """The lexicographically smallest subpath whose Hall sum misses its demand.

    The alpha sums are accumulated incrementally: extending the interval by
    one vertex grows each color's current run, and a run of length r
    contributes another unit exactly when r is odd.
    """
    m = len(L)
    prefix_w = [0]
    for wv in w:
        prefix_w.append(prefix_w[-1] + wv)
    for i in range(m):
        run_len: dict[int, int] = {}
        alpha_sum = 0
        for j in range(i, m):
            prev = run_len
            run_len = {}
            for k in L[j]:
                r = prev.get(k, 0) + 1
                if r & 1:
                    alpha_sum += 1
                run_len[k] = r
            if alpha_sum < prefix_w[j + 1] - prefix_w[i]:
                return Certificate(i, j, alpha_sum, prefix_w[j + 1] - prefix_w[i])
    return None


def decide_waterfall(lists: Iterable[Iterable[int]], weights: Iterable[int]) -> Decision:
    """Decide colorability of a waterfall list on a path.

    Colorable iff every interval's amplitude size reaches its demand.  For
    waterfall lists the amplitude size of ``i..j`` is the sum of the list
    sizes minus the overlaps of consecutive lists, so all intervals are
    checked with two prefix-sum arrays instead of set unions.
    """
    L, w = _checked(lists, weights)
    if not is_waterfall(L):
        raise NotWaterfallError("lists at distance two or more share a color")
    m = len(L)
    size_pre = [0]
    for colors in L:
        size_pre.append(size_pre[-1] + len(colors))
    ov_pre = [0]
    for k in range(m - 1):
        ov_pre.append(ov_pre[-1] + len(L[k] & L[k + 1]))
    w_pre = [0]
    for wv in w:
        w_pre.append(w_pre[-1] + wv)
    for i in range(m):
        for j in range(i, m):
            amp = size_pre[j + 1] - size_pre[i] - (ov_pre[j] - ov_pre[i])
            need = w_pre[j + 1] - w_pre[i]
            if amp < need:
                return Decision(False, certificate=Certificate(i, j, amp, need))
    return Decision(True, coloring=_validated(L, w, _greedy(L, w)))


def decide_waterfall_prefix(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> Decision:
    """Decide colorability of a good waterfall list from prefix intervals alone.

    Requires ``|L(i)| >= w(i) + w(i+1)`` at interior vertices and
    ``|L(n)| >= w(n)`` at the last one; under those hypotheses non-prefix
    intervals can never be the bottleneck, so the linear pass agrees with
    ``decide_waterfall``.
    """
    L, w = _checked(lists, weights)
    if not is_waterfall(L):
        raise NotWaterfallError("lists at distance two or more share a color")
    m = len(L)
    for i in range(1, m - 1):
        if len(L[i]) < w[i] + w[i + 1]:
            raise PreconditionError(
                f"interior vertex {i} has |L({i})| = {len(L[i])} "
                f"< w({i}) + w({i + 1}) = {w[i] + w[i + 1]}"
            )
    if len(L[m - 1]) < w[m - 1]:
        raise PreconditionError(
            f"last vertex has |L({m - 1})| = {len(L[m - 1])} < w({m - 1}) = {w[m - 1]}"
        )
    amp = 0
    demand = 0
    for j in range(m):
        amp += len(L[j]) - (len(L[j] & L[j - 1]) if j else 0)
        demand += w[j]
        if amp < demand:
            return Decision(False, certificate=Certificate(0, j, amp, demand))
    return Decision(True, coloring=_validated(L, w, _greedy(L, w)))


def _greedy(L: ListAssignment, w: Weights) -> Coloring | None:
    """Color the path left to right, or return None when a vertex runs short.

    Vertex v takes the first w(v) colors of L(v) - c(v-1), with x's run
    counted over the consecutive lists from v+1 that contain it:

    1. colors absent from L(v+1);
    2. runs of even length that stop before the path end, shortest first;
    3. runs that reach the path end;
    4. runs of odd length that stop before the path end, longest first;

    ties going by color value.  Fixing c(v) only shrinks L(v+1), and
    removing x from it lowers the Hall sum of a subpath v+1..j by one
    exactly when x's run, cut off at j, has odd length.  In the order above
    the sets of such j are nested, so the first w(v) colors keep Hall's
    condition on v+1.. whenever any choice of w(v) colors does.
    """
    m = len(L)
    # runs[v][x]: how many consecutive lists from v on contain x
    runs: list[dict[int, int]] = [{}]
    for colors in reversed(L):
        after = runs[-1]
        runs.append({x: after.get(x, 0) + 1 for x in colors})
    runs.reverse()

    out: list[frozenset[int]] = []
    taken: frozenset[int] = frozenset()
    for v in range(m):
        nxt, to_end = runs[v + 1], m - 1 - v

        def cost(x: int) -> tuple[int, int, int]:
            r = nxt.get(x, 0)
            if r == 0:
                return (0, 0, x)
            if r == to_end:
                return (2, 0, x)
            return (3, -r, x) if r & 1 else (1, r, x)

        avail = sorted(L[v] - taken, key=cost)
        if len(avail) < w[v]:
            return None
        taken = frozenset(avail[: w[v]])
        out.append(taken)
    return tuple(out)


def _validated(L: ListAssignment, w: Weights, coloring: Coloring | None) -> Coloring:
    if coloring is None or not validate_coloring(Instance.path(w, L), coloring):
        raise InternalInvariantError("no valid greedy coloring of lists that pass the checks")
    return coloring


def construct_coloring_waterfall(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> Coloring:
    """Build a coloring of a waterfall list that ``decide_waterfall`` accepts."""
    L, w = _checked(lists, weights)
    if not is_waterfall(L):
        raise NotWaterfallError("lists at distance two or more share a color")
    return _validated(L, w, _greedy(L, w))


def construct_coloring_general(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> Coloring:
    """Build a coloring of a path instance that satisfies Hall's condition."""
    L, w = _checked(lists, weights)
    return _validated(L, w, _greedy(L, w))
