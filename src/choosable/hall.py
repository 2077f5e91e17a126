"""Colorability of weighted paths via Hall's condition.

For a connected induced subgraph H of the path, Hall's condition asks the
sum over colors k of the independence number of the vertices of H whose
lists contain k to be at least the total weight of H.  On paths the
condition over all subpaths is not only necessary but sufficient, which
turns colorability into interval counting.

Every decider takes one route: a linear left-to-right greedy that keeps the
condition on the rest of the path, so it colors exactly the colorable
paths.  It keeps no table of runs: it measures a color's run only at a
vertex whose colors absent from the next list fall short of its weight, so
a "no" reads only the path up to the vertex where it runs short.  There, at
vertex v, it names the violated subpath with the smallest right end, v, and
the smallest left end among those.  The paper's two special cases are
theorems about that route, not separate passes.  On waterfall lists a
color's run inside any subpath is at most two long, so every color adds
exactly one and the Hall sum is the amplitude size; on good waterfall lists
a violated subpath, if there is one, starts at vertex 0.
"""

from __future__ import annotations

from typing import Iterable

from .model import (
    Certificate,
    Coloring,
    Decision,
    InternalInvariantError,
    Instance,
    ListAssignment,
    NotWaterfallError,
    PreconditionError,
    Weights,
    _check_good,
    _check_interval,
    _int_at_least,
    _is_waterfall,
    _Record,
    _set,
    as_lists,
)


class HallSummand(_Record):
    """One color's contribution to the Hall sum of a subpath."""

    __slots__ = ("color", "subpath", "alpha")

    def __init__(self, color: int, subpath: tuple[int, int], alpha: int) -> None:
        _set(self, "color", color)
        _set(self, "subpath", subpath)
        _set(self, "alpha", alpha)


def alpha_path(lists: Iterable[Iterable[int]], i: int, j: int, k: int) -> int:
    """Independence number of the vertices of ``i..j`` whose lists contain ``k``.

    The induced subgraph is a disjoint union of subpaths, so the value is the
    sum of ``ceil(run_length / 2)`` over the maximal runs of consecutive
    vertices carrying ``k``.
    """
    alpha = _alphas(as_lists(lists), i, j)
    return alpha.get(_int_at_least(k, 0, "colors must be non-negative integers"), 0)


def hall_summands(lists: Iterable[Iterable[int]], i: int, j: int) -> tuple[HallSummand, ...]:
    """Per-color alpha contributions for the subpath ``i..j``, sorted by color."""
    alpha = _alphas(as_lists(lists), i, j)
    return tuple(HallSummand(k, (i, j), alpha[k]) for k in sorted(alpha))


def _alphas(L: ListAssignment, i: int, j: int) -> dict[int, int]:
    """Alpha of every color of the amplitude of ``i..j``, in one pass.

    A run grown to odd length r adds one more unit: ceil(r / 2) in all.
    """
    _check_interval(i, j, len(L))
    alpha: dict[int, int] = {}
    run: dict[int, int] = {}
    for v in range(i, j + 1):
        run = {k: run.get(k, 0) + 1 for k in L[v]}
        for k, r in run.items():
            if r & 1:
                alpha[k] = alpha.get(k, 0) + 1
    return alpha


def _checked_waterfall(lists, weights) -> Instance:
    inst = Instance.path(weights, lists)
    if not _is_waterfall(inst.lists):
        raise NotWaterfallError("lists at distance two or more share a color")
    return inst


def hall_check_path(lists: Iterable[Iterable[int]], weights: Iterable[int]) -> Decision:
    """Decide colorability of a weighted path by Hall's condition on its subpaths.

    The greedy colors the path whenever the condition holds.  When it runs
    short, the certificate is the violated subpath with the smallest right
    end, and the smallest left end among those, with its alpha sum and
    demand.
    """
    return _decide(Instance.path(weights, lists))


def _decide(inst: Instance) -> Decision:
    """The greedy's coloring, or the certificate it names where it runs short.

    The coloring is proper by construction (see ``_greedy``), so it is
    returned unchecked.
    """
    found = _greedy(inst.lists, inst.weights)
    if isinstance(found, Certificate):
        return Decision(False, certificate=found)
    if found is None:
        # Hall's condition on every subpath is sufficient on a path
        raise InternalInvariantError("the greedy ran short with no violated subpath ending there")
    return Decision(True, coloring=found)


def decide_waterfall(lists: Iterable[Iterable[int]], weights: Iterable[int]) -> Decision:
    """Decide colorability of a waterfall list on a path.

    Colorable iff every interval's amplitude size reaches its demand: on a
    waterfall list each color of an interval's amplitude adds exactly one
    to its Hall sum.  Once the form is checked, the list is decided by the
    route of ``hall_check_path``, so a certificate counts the amplitude of
    the violated interval that route names.
    """
    return _decide(_checked_waterfall(lists, weights))


def decide_waterfall_prefix(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> Decision:
    """Decide colorability of a good waterfall list, whose bottleneck is a prefix.

    Requires ``|L(i)| >= w(i) + w(i+1)`` at interior vertices and
    ``|L(n)| >= w(n)`` at the last one.  Under those hypotheses the prefix
    that ends where the first violated intervals end is violated too, so
    the path is colorable iff every prefix's amplitude size reaches its
    demand, and the certificate of a "no" always starts at vertex 0.  Once
    the hypotheses are checked, the list is decided by the route of
    ``hall_check_path``.
    """
    inst = _checked_waterfall(lists, weights)
    L, w = inst.lists, inst.weights
    _check_good(L, w)  # a NotGoodError is a PreconditionError
    v = len(L) - 1
    if len(L[v]) < w[v]:
        raise PreconditionError(f"last vertex has |L({v})| = {len(L[v])} < w({v}) = {w[v]}")
    return _decide(inst)


def _greedy(L: ListAssignment, w: Weights) -> Coloring | Certificate | None:
    """Color the path left to right, or name the violated subpath where it runs short.

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

    The first class is one chained difference, L(v) - c(v-1) - L(v+1).  A
    vertex takes it whole when it holds exactly w(v) colors and its w(v)
    smallest colors when it holds more; most vertices do one or the other
    and rank nothing.  Only where it falls short is L(v) - c(v-1) formed:
    the vertex runs short if that holds fewer than w(v) colors, takes it
    whole if exactly w(v), and otherwise ranks the colors it shares with
    L(v+1), so runs are measured only where a vertex ranks.  There x's run
    is read off ``end[x]``, the last vertex of the run of x measured last:
    if that run reaches past v it holds v+1, and otherwise the run is
    scanned from v+1 to its end.  A scan starts past every vertex an earlier
    scan of x reached, so each list is scanned at most once per color and a
    full pass stays linear in the sum of the list sizes.

    Each vertex takes exactly w(v) colors of its own list, none of them in
    c(v-1), so a full pass is a proper coloring with nothing left to check.
    When vertex v runs short, vertices 0..v-1 are properly colored, so no
    violated subpath ends before v.  The return value is then the violated
    subpath ending at v with the smallest left end, or None if there is
    none, which ``_decide`` treats as a broken invariant.  One pass over the
    left end i from v down to 0 finds it, with one set difference per
    vertex: the colors of L(i) whose run from i, cut off at v, has odd
    length are L(i) less those of i + 1.
    """
    m = len(L)
    last = m - 1
    # end[x]: the last vertex of the run of x scanned last; if it is v or
    # earlier, that run does not hold v + 1
    end: dict[int, int] = {}
    out: list[frozenset[int]] = []
    taken: frozenset[int] = frozenset()
    for v in range(m):
        need = w[v]
        nxt = L[v + 1] if v < last else frozenset()
        # chained: L[v].difference(taken, nxt) would copy L(v)'s hash table
        # into every set it returns, the ones kept in the coloring included
        first = L[v] - taken - nxt
        if len(first) == need:
            taken = first
        elif len(first) > need:
            taken = frozenset(sorted(first)[:need])
        else:
            avail = L[v] - taken
            if len(avail) < need:
                break
            if len(avail) > need:
                ranked = []
                for x in avail & nxt:
                    e = end.get(x, v)
                    if e <= v:
                        e = v + 1
                        while e < last and x in L[e + 1]:
                            e += 1
                        end[x] = e
                    r = e - v
                    ranked.append((2, 0, x) if e == last else (3, -r, x) if r & 1 else (1, r, x))
                ranked.sort()
                avail = frozenset(sorted(first) + [x for _, _, x in ranked[: need - len(first)]])
            taken = avail
        out.append(taken)
    if len(out) == m:
        return tuple(out)

    # v ran short.  The left end i walks from v down to 0, with odd the
    # colors x of L(i) whose run from i, cut off at v, has odd length: x
    # opens its run in i..v at i, which adds one to the Hall sum exactly
    # then.  That run is odd exactly when x's run from i + 1 is even or
    # empty, so odd is L(i) less the odd set of i + 1.
    found = None
    alpha = demand = 0
    odd: frozenset[int] = frozenset()
    for i in range(v, -1, -1):
        odd = L[i] - odd
        alpha += len(odd)
        demand += w[i]
        if alpha < demand:
            found = i, alpha, demand
    return None if found is None else Certificate(found[0], v, found[1], found[2])


def construct_coloring_waterfall(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> Coloring:
    """The coloring ``decide_waterfall`` finds, or ``PreconditionError`` if none."""
    return _coloring(decide_waterfall(lists, weights))


def construct_coloring_general(
    lists: Iterable[Iterable[int]], weights: Iterable[int]
) -> Coloring:
    """The coloring ``hall_check_path`` finds, or ``PreconditionError`` if none."""
    return _coloring(hall_check_path(lists, weights))


def _coloring(decision: Decision) -> Coloring:
    if not decision.colorable:
        cert = decision.certificate
        raise PreconditionError(
            f"not colorable: vertices {cert.i}..{cert.j} demand {cert.demand} colors "
            f"and their Hall sum is {cert.amplitude_size}"
        )
    return decision.coloring
