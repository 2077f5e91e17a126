"""Shared builders, enumerators and the reference scan and greedy for the test suite."""

from __future__ import annotations

import itertools
import random

from choosable import Certificate, Coloring, Instance, ListAssignment, Weights


def L(*entries):
    """Build a list assignment from color collections."""
    return tuple(frozenset(entry) for entry in entries)


def path(weights, lists) -> Instance:
    return Instance.path(weights, lists)


def subsets_up_to(universe, max_size):
    """All subsets of the universe with at most max_size elements."""
    out = []
    for k in range(max_size + 1):
        out.extend(frozenset(c) for c in itertools.combinations(universe, k))
    return out


def weight_vectors(m, max_w):
    """All weight tuples of length m with entries 0..max_w."""
    return list(itertools.product(range(max_w + 1), repeat=m))


def all_lists(universe, max_size, m):
    """Every list assignment of length m over the universe, sizes <= max_size."""
    return itertools.product(subsets_up_to(universe, max_size), repeat=m)


def waterfall_lists(universe, max_size, m):
    """Every waterfall list assignment of length m over the universe.

    Generated directly: the list at vertex v may reuse colors of vertex v-1
    but nothing older, which characterizes waterfall form.
    """

    def rec(v, banned, prev, acc):
        if v == m:
            yield tuple(acc)
            return
        avail = tuple(c for c in universe if c not in banned)
        for k in range(max_size + 1):
            for comb in itertools.combinations(avail, k):
                acc.append(frozenset(comb))
                yield from rec(v + 1, banned | prev, acc[-1], acc)
                acc.pop()

    yield from rec(0, frozenset(), frozenset(), [])


def planted_good_path(seed, m, weight=2, size=6, colors=12):
    """Weights and good lists of a path with a planted coloring.

    Every list holds ``size`` of ``colors`` colors and contains a
    ``weight``-subset disjoint from the one planted at the vertex before.
    """
    rng = random.Random(seed)
    palette = range(colors)
    weights, lists, planted = [weight] * m, [], set()
    for _ in range(m):
        planted = set(rng.sample([c for c in palette if c not in planted], weight))
        rest = rng.sample([c for c in palette if c not in planted], size - weight)
        lists.append(sorted(planted) + rest)
    return weights, lists


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


def reference_greedy(L: ListAssignment, w: Weights) -> Coloring | Certificate | None:
    """Color the path left to right, or name the violated subpath where it runs short.

    The greedy of ``choosable.hall`` as it was before it kept runs for
    shared colors only: a run table for every color at every vertex, and
    every available color ranked.  The package's greedy must return the
    same value on every input.

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

    When vertex v runs short, vertices 0..v-1 are properly colored, so no
    violated subpath ends before v.  The return value is then the violated
    subpath ending at v with the smallest left end, or None if there is
    none.
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
            break
        taken = frozenset(avail[: w[v]])
        out.append(taken)
    if len(out) == m:
        return tuple(out)

    # v ran short.  The left end i walks from v down to 0: x in L(i) opens
    # its run in i..v at i, which adds one to the Hall sum exactly when the
    # run from i+1, cut off at v, has even length.
    found = None
    alpha = demand = 0
    for i in range(v, -1, -1):
        alpha += sum(1 for x in L[i] if not min(runs[i + 1].get(x, 0), v - i) & 1)
        demand += w[i]
        if alpha < demand:
            found = i, alpha, demand
    return None if found is None else Certificate(found[0], v, found[1], found[2])
