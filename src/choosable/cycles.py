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

from .model import (
    Decision,
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    PreconditionError,
    _int_at_least,
    _Record,
    _set,
)

# Ratio thresholds are exact integer fractions; nothing in this package
# compares floats.
Rational = Fraction


class ChoiceParameters(_Record):
    """Uniform list size ``a`` and per-vertex demand ``b``; ``e = a - 2b``."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _set(self, "a", _int_at_least(a, 1, "a must be a positive integer"))
        _set(self, "b", _int_at_least(b, 1, "b must be a positive integer"))

    @property
    def e(self) -> int:
        return self.a - 2 * self.b


def even_ceil(x: Rational | int) -> int:
    """Smallest even integer >= x, a non-negative int or ``Fraction``."""
    if not isinstance(x, Fraction) or x < 0:
        _int_at_least(x, 0, "even_ceil needs a non-negative int or Fraction")
    p = math.ceil(x)
    return p + (p & 1)


def endpoint_threshold(params: ChoiceParameters, n: int) -> bool:
    """Whether paths of length n with b-sized end lists are always colorable.

    True iff n >= even_ceil(2b / e) with e = a - 2b >= 1.  When true, every
    list with |L(0)| = |L(n)| = b and interior sizes a admits a coloring
    giving b colors per vertex.
    """
    if not isinstance(params, ChoiceParameters):
        raise InvalidInputError(f"params must be ChoiceParameters, got {type(params).__name__}")
    _int_at_least(n, 0, "n must be a non-negative integer")
    if params.e < 1:
        raise PreconditionError(
            f"requires e = a - 2b >= 1, got e = {params.e} for a = {params.a}, b = {params.b}"
        )
    return n >= even_ceil(Fraction(2 * params.b, params.e))


def _half(n: int) -> int:
    """floor(n/2) of a cycle length n, which the paper's results need to be >= 3."""
    return _int_at_least(n, 3, "cycle length n must be an integer >= 3", PreconditionError) // 2


def fchr(n: int) -> Rational:
    """Free-choice ratio of the cycle of length n: 2 + 1/floor(n/2)."""
    return Fraction(2) + Fraction(1, _half(n))


def is_free_choosable(a: int, b: int, n: int) -> bool:
    """Whether the cycle of length n is (a, b)-free-choosable.

    Equivalent to a/b >= fchr(n), evaluated without division as
    floor(n/2) * (a - 2b) >= b.
    """
    params = ChoiceParameters(a, b)
    return _half(n) * params.e >= params.b


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
    i..j index the cut path, whose vertex p is (v0 + p) mod n and n is v0.  The
    path coloring is proper by construction, and both path ends carry the
    forced set as their whole list, so each takes exactly that set: the
    rotated coloring is proper on the wrap edge too and keeps the pin.
    """
    from .hall import _decide  # only here, so fchr and the other formulas skip hall

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
    if is_free_choosable(a, b, n):
        raise PreconditionError(
            f"a/b = {a}/{b} is not strictly below 2 + 1/{_half(n)}; no counterexample exists"
        )
    if a < b:
        raise PreconditionError(f"a = {a} < b = {b}: the forced b-set does not fit in an a-list")
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
