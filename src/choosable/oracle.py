"""Ground-truth exhaustive solver for small instances.

Plain depth-first enumeration, vertices in index order from vertex 0, or
from the pinned vertex around the cycle, candidate subsets of each list in
lexicographic order, pruning only on adjacent disjointness (the wrap edge of
a cycle is checked at the last vertex visited, against the first).  A
candidate is kept when it misses the set kept for the vertex before, one
set test, and the kept frozensets are the coloring returned.  Deliberately
independent of the interval machinery so the two routes can check each
other.  Each vertex on the current branch draws its candidates lazily, so
memory grows with the path length, not with C(|L(v)|, w(v)), and the node
budget bounds both time and memory: a runaway search ends in an explicit
error rather than a silent wrong answer.
"""

from __future__ import annotations

import itertools

from .model import (
    BudgetExceededError,
    Certificate,
    Decision,
    FreeChoiceInstance,
    Instance,
    SearchBudget,
    _CYCLE,
)

# an immutable record, so every call without a budget can share it
_DEFAULT_BUDGET = SearchBudget()
_NONE: frozenset[int] = frozenset()  # what the first vertex visited must miss


def brute_force(inst: Instance, budget: SearchBudget | None = None) -> Decision:
    """Decide an instance by exhaustive search.

    Returns the lexicographically first coloring (vertex by vertex, subsets
    ordered over sorted color values) or a summary certificate covering the
    whole instance.
    """
    return _search(inst, None, budget or _DEFAULT_BUDGET)


def brute_force_forced(
    fi: FreeChoiceInstance, budget: SearchBudget | None = None
) -> Decision:
    """Exhaustive search with the color set of v0 pinned to the forced set.

    The search starts at v0, so the wrap edge, checked last, meets the pin.
    """
    return _search(fi.cycle, (fi.v0, fi.forced), budget or _DEFAULT_BUDGET)


def _search(
    inst: Instance, pinned: tuple[int, frozenset[int]] | None, budget: SearchBudget
) -> Decision:
    lists, weights = inst.lists, inst.weights
    m = len(weights)
    start = pinned[0] if pinned is not None else 0
    wrap = inst.topology is _CYCLE
    # chosen[v] is the color set kept for vertex v on the current branch
    chosen = [_NONE] * m
    cap = budget.max_nodes
    nodes = 0

    # one lazy iterator over the candidate subsets of each vertex on the
    # current branch: ``combos`` for the vertex ``v`` being tried, ``stack``
    # for those before it; the pinned vertex's only candidate is its forced set
    first = pinned[1] if pinned is not None else lists[0]
    combos = itertools.combinations(sorted(first), weights[start])
    stack = []
    v = start
    while True:
        last = len(stack) == m - 1
        # a candidate must miss the set kept for the vertex before, v - 1
        # around the cycle, and at the last vertex of a cycle the first one's
        avoid = chosen[v - 1] if stack else _NONE
        if last and wrap:
            avoid = avoid | chosen[start]
        misses = avoid.isdisjoint
        for combo in combos:
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(nodes, cap)
            if misses(combo):
                chosen[v] = frozenset(combo)
                break
        else:
            if not stack:
                break
            combos = stack.pop()
            v = (v - 1) % m
            continue
        if last:
            return Decision(True, coloring=tuple(chosen))
        stack.append(combos)
        v = (v + 1) % m
        combos = itertools.combinations(sorted(lists[v]), weights[v])
    summary = Certificate(0, m - 1, len(frozenset().union(*lists)), sum(weights))
    return Decision(False, certificate=summary)
