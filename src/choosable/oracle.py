"""Ground-truth exhaustive solver for small instances.

Plain depth-first enumeration, vertices in index order from vertex 0, or
from the pinned vertex around the cycle, candidate subsets of each list in
lexicographic order, pruning only on adjacent disjointness (the wrap edge of
a cycle is checked at the last vertex visited, against the first).  Deliberately
independent of the interval machinery so the two routes can check each
other.  Each vertex on the current branch draws its candidates lazily, so
memory grows with the path length and the colors in play, not with
C(|L(v)|, w(v)), and the node budget bounds both time and memory: a runaway
search ends in an explicit error rather than a silent wrong answer.
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
    Topology,
)


def brute_force(inst: Instance, budget: SearchBudget | None = None) -> Decision:
    """Decide an instance by exhaustive search.

    Returns the lexicographically first coloring (vertex by vertex, subsets
    ordered over sorted color values) or a summary certificate covering the
    whole instance.
    """
    return _search(inst, None, budget or SearchBudget())


def brute_force_forced(
    fi: FreeChoiceInstance, budget: SearchBudget | None = None
) -> Decision:
    """Exhaustive search with the color set of v0 pinned to the forced set.

    The search starts at v0, so the wrap edge, checked last, meets the pin.
    """
    return _search(fi.cycle, (fi.v0, fi.forced), budget or SearchBudget())


def _search(
    inst: Instance, pinned: tuple[int, frozenset[int]] | None, budget: SearchBudget
) -> Decision:
    m = inst.n_vertices
    start = pinned[0] if pinned is not None else 0
    lists, weights = inst.lists, inst.weights

    # color sets as bitmasks, one bit per color in play whatever its value;
    # chosen and masks are indexed by position in visiting order
    bit = {c: 1 << k for k, c in enumerate(frozenset().union(*lists))}
    wrap = inst.topology is Topology.CYCLE
    chosen: list[tuple[int, ...]] = [()] * m
    masks = [0] * m
    cap = budget.max_nodes
    nodes = 0

    # one lazy iterator over the candidate subsets of each vertex on the
    # current branch; the pinned vertex's only candidate is its forced set
    first = pinned[1] if pinned is not None else lists[0]
    stack = [itertools.combinations(sorted(first), weights[start])]
    while stack:
        k = len(stack) - 1
        prev_mask = masks[k - 1] if k else 0
        last = k == m - 1
        for combo in stack[-1]:
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(nodes, cap)
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
            return Decision(True, coloring=coloring)
        v = (start + k + 1) % m
        stack.append(itertools.combinations(sorted(lists[v]), weights[v]))
    summary = Certificate(0, m - 1, len(bit), sum(weights))
    return Decision(False, certificate=summary)
