"""Shared builders, enumerators and the reference scan, greedy, transform and search."""

from __future__ import annotations

import itertools
import random
from collections import deque

from choosable import (
    Certificate,
    Coloring,
    Decision,
    Instance,
    ListAssignment,
    Topology,
    TransformReport,
    Weights,
)


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


def reference_to_waterfall(lists, weights) -> tuple[ListAssignment, TransformReport]:
    """The waterfall transform as it was before the plan placed the labels.

    The whole ``TransformReport`` is planned from a per-color table of
    maximal runs, then replayed on the list event by event.  The package's
    ``to_waterfall`` must return the same list and the same report on every
    good input.
    """
    L = Instance.path(weights, lists).lists
    runs: dict[int, list[list[int]]] = {}
    for v, colors in enumerate(L):
        for x in colors:
            own = runs.setdefault(x, [])
            if own and own[-1][1] == v - 1:
                own[-1][1] = v
            else:
                own.append([v, v])
    fresh = max(runs, default=-1) + 1

    # stage 1: detached runs, left to right (ties by color), get fresh labels
    run_renames = []
    spans = [(own[0][0], own[0][1], x) for x, own in runs.items()]
    for start, x, end in sorted((s, x, e) for x, own in runs.items() for s, e in own[1:]):
        run_renames.append((x, fresh, start, end))
        spans.append((start, end, fresh))
        fresh += 1
    if not run_renames and all(last - first < 2 for first, last, _ in spans):
        return L, TransformReport()

    # stage 2: the k-th span in (first, last, label) order takes the k-th
    # smallest label
    spans.sort()
    labels = sorted(label for _, _, label in spans)
    relabel = tuple((x, new) for (_, _, x), new in zip(spans, labels) if x != new)

    # stage 3: long labels are replaced first in, first out
    queue = deque(
        (new, first, last) for (first, last, _), new in zip(spans, labels) if last - first >= 2
    )
    replacements = []
    while queue:
        x, first, last = queue.popleft()
        replacements.append((x, fresh, first + 2, last))
        if last - first >= 4:
            queue.append((fresh, first + 2, last))
        fresh += 1
    report = TransformReport(tuple(run_renames), relabel, tuple(replacements))

    def rename(work, old, new, start, end):
        for v in range(start, end + 1):
            if old in work[v]:
                work[v].discard(old)
                work[v].add(new)

    work = [set(colors) for colors in L]
    for old, new, start, end in report.run_renames:
        rename(work, old, new, start, end)
    relabel_map = dict(relabel)
    work = [{relabel_map.get(x, x) for x in colors} for colors in work]
    root: dict[int, int] = {}  # stage 3 label -> the stage 2 label of its run
    for old, new, start, end in report.replacements:
        old = root[new] = root.get(old, old)
        rename(work, old, new, start, min(start + 1, end))
    return tuple(frozenset(colors) for colors in work), report


def reference_waterfall_doc(transformed, report) -> dict:
    """The ``choosable waterfall`` document as a dict, one dict per event.

    This is how the command built its output before it wrote the document
    section by section; ``json.dumps`` of it, plus a newline, is the output
    the command must still write byte for byte.
    """

    def events(renames):
        return [
            {"old": old, "new": new, "start": start, "end": end}
            for old, new, start, end in renames
        ]

    return {
        "lists": [sorted(entry) for entry in transformed],
        "report": {
            "run_renames": events(report.run_renames),
            "relabel_map": sorted([old, new] for old, new in report.relabel_map),
            "replacements": events(report.replacements),
            "fresh_colors": sorted(report.fresh_colors),
            "iterations": report.iterations,
        },
    }


def reference_search(inst: Instance, pinned=None) -> tuple[Decision, int]:
    """The oracle's search with bitmasks, as it was, and its node count.

    ``pinned`` is ``(v0, forced)`` for a pinned cycle.  The same depth-first
    enumeration as ``oracle._search``: a color set is a bitmask, one bit per
    color in play, and a candidate is tried by building its mask.  There is
    no cap; the returned count is the node where a cap would have tripped,
    less one.
    """
    m = inst.n_vertices
    start = pinned[0] if pinned is not None else 0
    lists, weights = inst.lists, inst.weights
    bit = {c: 1 << k for k, c in enumerate(frozenset().union(*lists))}
    wrap = inst.topology is Topology.CYCLE
    chosen: list[tuple[int, ...]] = [()] * m
    masks = [0] * m
    nodes = 0
    first = pinned[1] if pinned is not None else lists[0]
    stack = [itertools.combinations(sorted(first), weights[start])]
    while stack:
        k = len(stack) - 1
        prev_mask = masks[k - 1] if k else 0
        last = k == m - 1
        for combo in stack[-1]:
            nodes += 1
            mask = 0
            for c in combo:
                mask |= bit[c]
            if mask & prev_mask:
                continue
            if last and wrap and mask & masks[0]:
                continue
            chosen[k] = combo
            masks[k] = mask
            break
        else:
            stack.pop()
            continue
        if last:
            coloring = tuple(frozenset(chosen[(v - start) % m]) for v in range(m))
            return Decision(True, coloring=coloring), nodes
        v = (start + k + 1) % m
        stack.append(itertools.combinations(sorted(lists[v]), weights[v]))
    summary = Certificate(0, m - 1, len(bit), sum(weights))
    return Decision(False, certificate=summary), nodes
