"""Ground-truth exhaustive solver for small instances.

Plain depth-first enumeration, vertices in index order from vertex 0, or
from the pinned vertex around the cycle, candidate subsets of each list in
lexicographic order, pruning only on adjacent disjointness (the wrap edge of
a cycle is checked at the last vertex visited, against the first).  Deliberately
independent of the interval machinery so the two routes can check each
other.  A node budget turns runaway searches into an explicit error rather
than a silent wrong answer.
"""

from __future__ import annotations

import itertools

from .cycles import FreeChoiceInstance
from .model import (
    BudgetExceededError,
    Certificate,
    Decision,
    Instance,
    InvalidInputError,
    Topology,
    _Record,
    _set,
)


class SearchBudget(_Record):
    """Cap on attempted assignments across the whole search."""

    __slots__ = ("max_nodes",)

    def __init__(self, max_nodes: int = 10_000_000) -> None:
        if not isinstance(max_nodes, int) or isinstance(max_nodes, bool):
            raise InvalidInputError(f"max_nodes must be an integer, got {max_nodes!r}")
        if max_nodes < 1:
            raise InvalidInputError("max_nodes must be positive")
        _set(self, "max_nodes", max_nodes)


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

    # color sets as bitmasks, one bit per color in play whatever its value;
    # candidates, chosen and masks are indexed by position in visiting order
    bit = {c: 1 << k for k, c in enumerate(frozenset().union(*inst.lists))}
    candidates = []
    for v in (*range(start, m), *range(start)):
        if pinned is not None and v == start:
            combos = [tuple(sorted(pinned[1]))]
        else:
            combos = itertools.combinations(sorted(inst.lists[v]), inst.weights[v])
        row = []
        for combo in combos:
            mask = 0
            for c in combo:
                mask |= bit[c]
            row.append((mask, combo))
        candidates.append(row)

    wrap = inst.topology is Topology.CYCLE
    chosen: list[tuple[int, ...]] = [()] * m
    masks = [0] * m
    cap = budget.max_nodes
    nodes = 0

    # one iterator over the candidates of each vertex on the current branch
    stack = [iter(candidates[0])]
    while stack:
        v = len(stack) - 1
        prev_mask = masks[v - 1] if v else 0
        last = v == m - 1
        for mask, combo in stack[-1]:
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(nodes, cap)
            if mask & prev_mask:
                continue
            if last and wrap and mask & masks[0]:
                continue
            chosen[v] = combo
            masks[v] = mask
            break
        else:
            stack.pop()
            continue
        if last:
            coloring = tuple(frozenset(chosen[(u - start) % m]) for u in range(m))
            return Decision(True, coloring=coloring)
        stack.append(iter(candidates[v + 1]))
    summary = Certificate(0, m - 1, len(bit), sum(inst.weights))
    return Decision(False, certificate=summary)
