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
from dataclasses import dataclass
from fractions import Fraction

from .hall import hall_check_path
from .model import (
    Decision,
    InternalInvariantError,
    Instance,
    InvalidInputError,
    PreconditionError,
    Rational,
    Topology,
)


@dataclass(frozen=True)
class ChoiceParameters:
    """Uniform list size ``a`` and per-vertex demand ``b``; ``e = a - 2b``."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise InvalidInputError("a and b must be positive integers")

    @property
    def e(self) -> int:
        return self.a - 2 * self.b


@dataclass(frozen=True)
class FreeChoiceInstance:
    """A cycle instance with the color set of one vertex pinned in advance."""

    cycle: Instance
    v0: int
    forced: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "forced", frozenset(self.forced))
        if self.cycle.topology is not Topology.CYCLE:
            raise InvalidInputError("free choice instances are rooted in cycles")
        if not 0 <= self.v0 < self.cycle.n_vertices:
            raise InvalidInputError(f"v0 = {self.v0} out of range")
        if len(self.forced) != self.cycle.weights[self.v0]:
            raise InvalidInputError(
                f"forced set has {len(self.forced)} colors, vertex {self.v0} "
                f"demands {self.cycle.weights[self.v0]}"
            )
        if not self.forced <= self.cycle.lists[self.v0]:
            raise InvalidInputError("forced colors must come from the list at v0")


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

    Runs the path reduction through ``hall_check_path``; on success the alias
    vertex is dropped and the path coloring rotated back onto the cycle, on
    failure the path certificate is returned as is.  Both path ends carry
    exactly the forced set, so a proper path coloring is a proper cycle
    coloring that keeps the pin; ``hall_check_path`` has validated it.
    """
    path = cycle_to_path(fi)
    decision = hall_check_path(path.lists, path.weights)
    if not decision.colorable:
        return decision
    n = fi.cycle.n_vertices
    on_cycle: list[frozenset[int]] = [frozenset()] * n
    for i in range(n):
        on_cycle[(fi.v0 + i) % n] = decision.coloring[i]
    return Decision(True, coloring=tuple(on_cycle))


def counterexample_list(a: int, b: int, n: int) -> FreeChoiceInstance:
    """Even-cycle instance witnessing that ratios below the threshold fail.

    For even n >= 4 and a/b strictly below 2 + 1/(n/2), builds the a-lists
    whose forced choice {1..b} at vertex 0 propagates around the cycle and
    collides with itself, so no coloring extends it.  Requesting parameters
    at or above the threshold is an error: no counterexample exists there.
    """
    if n < 4 or n % 2:
        raise PreconditionError(f"counterexamples exist for even n >= 4 only, got n = {n}")
    if a < 1 or b < 1:
        raise PreconditionError("a and b must be positive integers")
    if (n // 2) * (a - 2 * b) >= b:
        raise PreconditionError(
            f"a/b = {a}/{b} is not strictly below 2 + 1/{n // 2}; "
            "no counterexample exists"
        )
    lists = []
    for i in range(n):
        if i <= 1:
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
        entry = frozenset(colors)
        if len(entry) != a:
            raise InternalInvariantError(f"list at vertex {i} has size {len(entry)}, wanted {a}")
        lists.append(entry)
    cycle = Instance.cycle([b] * n, lists)
    return FreeChoiceInstance(cycle, 0, frozenset(range(1, b + 1)))
