"""Free-choosability of cycles.

A cycle is (a, b)-free-choosable when, for every a-list, every vertex v0 and
every pre-chosen b-subset of L(v0), a coloring giving each vertex b colors
extends the choice.  The threshold is exact: the cycle of length n admits
this for precisely the ratios a/b >= 2 + 1/floor(n/2).  Deciding a concrete
instance reduces to a path: cut the cycle at v0 and pin both endpoints of
the resulting path to the forced set.

All ratio comparisons are exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hall import _decide
from .model import (
    Decision,
    Instance,
    InvalidInputError,
    PreconditionError,
    Rational,
    Topology,
    _Record,
    _set,
    as_lists,
)


class ChoiceParameters(_Record):
    """Uniform list size ``a`` and per-vertex demand ``b``; ``e = a - 2b``."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if a < 1 or b < 1:
            raise InvalidInputError("a and b must be positive integers")
        _set(self, "a", a)
        _set(self, "b", b)

    @property
    def e(self) -> int:
        return self.a - 2 * self.b


class FreeChoiceInstance(_Record):
    """A cycle instance with the color set of one vertex pinned in advance."""

    __slots__ = ("cycle", "v0", "forced")

    def __init__(self, cycle: Instance, v0: int, forced: frozenset[int]) -> None:
        forced = frozenset(forced)
        if cycle.topology is not Topology.CYCLE:
            raise InvalidInputError("free choice instances are rooted in cycles")
        if not isinstance(v0, int) or isinstance(v0, bool):
            raise InvalidInputError(f"v0 must be an integer, got {v0!r}")
        if not 0 <= v0 < cycle.n_vertices:
            raise InvalidInputError(f"v0 = {v0} out of range")
        if len(forced) != cycle.weights[v0]:
            raise InvalidInputError(
                f"forced set has {len(forced)} colors, vertex {v0} "
                f"demands {cycle.weights[v0]}"
            )
        if not forced <= cycle.lists[v0]:
            raise InvalidInputError("forced colors must come from the list at v0")
        as_lists((forced,))  # True equals 1, so it passes the subset test
        _set(self, "cycle", cycle)
        _set(self, "v0", v0)
        _set(self, "forced", forced)


def even_ceil(x: Rational | int) -> int:
    """Smallest even integer >= x (x non-negative)."""
    if x < 0:
        raise InvalidInputError(f"even_ceil needs a non-negative argument, got {x}")
    p = math.ceil(x)
    return p + (p & 1)


def endpoint_threshold(params: ChoiceParameters, n: int) -> bool:
    """Whether paths of length n with b-sized end lists are always colorable.

    True iff n >= even_ceil(2b / e) with e = a - 2b >= 1.  When true, every
    list with |L(0)| = |L(n)| = b and interior sizes a admits a coloring
    giving b colors per vertex.
    """
    if params.e < 1:
        raise PreconditionError(
            f"requires e = a - 2b >= 1, got e = {params.e} for a = {params.a}, b = {params.b}"
        )
    return n >= even_ceil(Fraction(2 * params.b, params.e))


def fchr(n: int) -> Rational:
    """Free-choice ratio of the cycle of length n: 2 + 1/floor(n/2)."""
    if n < 3:
        raise InvalidInputError(f"cycles have length at least 3, got {n}")
    return Fraction(2) + Fraction(1, n // 2)


def is_free_choosable(a: int, b: int, n: int) -> bool:
    """Whether the cycle of length n is (a, b)-free-choosable.

    Equivalent to a/b >= fchr(n), evaluated without division as
    floor(n/2) * (a - 2b) >= b.
    """
    if a < 1 or b < 1:
        raise InvalidInputError("a and b must be positive integers")
    if n < 3:
        raise InvalidInputError(f"cycles have length at least 3, got {n}")
    return (n // 2) * (a - 2 * b) >= b


def cycle_to_path(fi: FreeChoiceInstance) -> Instance:
    """Cut the cycle at v0: a path whose both end lists are the forced set.

    Vertex i of the path is cycle vertex (v0 + i) mod n for i < n; vertex n
    aliases v0 again.  Both endpoints carry the forced set as their whole
    list, so any path coloring uses it exactly and maps back to a cycle
    coloring with c(v0) = forced.
    """
    cyc = fi.cycle
    n = cyc.n_vertices
    lists = [fi.forced]
    weights = [cyc.weights[fi.v0]]
    for i in range(1, n):
        v = (fi.v0 + i) % n
        lists.append(cyc.lists[v])
        weights.append(cyc.weights[v])
    lists.append(fi.forced)
    weights.append(cyc.weights[fi.v0])
    return Instance.path(weights, lists)


def solve_free_choice(fi: FreeChoiceInstance) -> Decision:
    """Decide whether the forced choice extends to a coloring of the cycle.

    Decides the path reduction by the route of ``hall_check_path``; on
    success the alias vertex is dropped and the path coloring rotated back
    onto the cycle, on failure the path certificate is returned as is: its
    i..j index the cut path, whose vertex p is (v0 + p) mod n and n is v0.  Both
    path ends carry exactly the forced set, so a proper path coloring is a
    proper cycle coloring that keeps the pin; that route has validated it.
    """
    decision = _decide(cycle_to_path(fi))
    if not decision.colorable:
        return decision
    n = fi.cycle.n_vertices
    on_cycle: list[frozenset[int]] = [frozenset()] * n
    for i in range(n):
        on_cycle[(fi.v0 + i) % n] = decision.coloring[i]
    return Decision(True, coloring=tuple(on_cycle))


def counterexample_list(a: int, b: int, n: int) -> FreeChoiceInstance:
    """Cycle instance witnessing that ratios below the threshold fail.

    For n >= 3 and a/b strictly below 2 + 1/floor(n/2), builds a-lists whose
    forced choice {1..b} at vertex 0 no coloring extends: for even n it
    propagates around the cycle and collides with itself; for odd n = 2k + 1
    every list is {1..a}, and the cycle's fractional chromatic number 2 + 1/k
    rules out any coloring with b colors per vertex.  Requesting parameters
    at or above the threshold is an error: no counterexample exists there.
    So is a < b, where the forced set cannot come from a list of size a.
    """
    if n < 3:
        raise PreconditionError(f"counterexamples exist for n >= 3 only, got n = {n}")
    if a < 1 or b < 1:
        raise PreconditionError("a and b must be positive integers")
    if a < b:
        raise PreconditionError(f"a = {a} < b = {b}: the forced b-set does not fit in an a-list")
    if (n // 2) * (a - 2 * b) >= b:
        raise PreconditionError(
            f"a/b = {a}/{b} is not strictly below 2 + 1/{n // 2}; "
            "no counterexample exists"
        )
    lists = []
    for i in range(n):
        if i <= 1 or n % 2:
            colors = range(1, a + 1)
        elif i == n - 1:
            block = (n - 4) // 2
            colors = list(range(1, b + 1)) + list(
                range((block + 1) * a + 1, (block + 2) * a - b + 1)
            )
        elif i % 2:
            block = (i - 1) // 2
            colors = range(block * a + 1, (block + 1) * a + 1)
        else:
            block = (i - 2) // 2
            colors = range(b + block * a + 1, b + (block + 1) * a + 1)
        lists.append(frozenset(colors))
    cycle = Instance.cycle([b] * n, lists)
    return FreeChoiceInstance(cycle, 0, frozenset(range(1, b + 1)))
