"""Core types for list multicoloring of weighted paths and cycles.

Vocabulary used across the package:

* list assignment ``L``: one finite color set per vertex,
* weights ``w``: how many colors each vertex must receive,
* coloring ``c``: a choice of ``w(v)`` colors from ``L(v)`` per vertex such
  that adjacent vertices receive disjoint sets,
* amplitude ``A(i, j)``: the union of the lists of vertices ``i..j``,
* good list: ``|L(i)| >= w(i) + w(i+1)`` at every interior vertex,
* waterfall list: every color appears on at most two, necessarily
  consecutive, vertices of the path.

Path vertices are indexed left to right with edges between consecutive
indices; a cycle adds the wrap edge between the last vertex and vertex 0.
Colors are opaque non-negative integers.  Every value here is immutable and
every operation is a pure function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import AbstractSet, Iterable, Iterator, Sequence

Color = int
ListAssignment = tuple[frozenset[int], ...]
Weights = tuple[int, ...]
Coloring = tuple[frozenset[int], ...]

# Ratio thresholds are exact integer fractions; nothing in this package
# compares floats.
Rational = Fraction


class InvalidInputError(ValueError):
    """Arguments violate a documented invariant of the operation."""


class NotGoodError(InvalidInputError):
    """The list misses the good-list bound at an interior vertex."""


class NotWaterfallError(InvalidInputError):
    """The list assignment is not in waterfall form."""


class PreconditionError(InvalidInputError):
    """A stated hypothesis of the operation does not hold for the input."""


class BudgetExceededError(RuntimeError):
    """The exhaustive search hit its node cap before reaching a verdict."""

    def __init__(self, nodes: int, max_nodes: int) -> None:
        super().__init__(f"search budget exceeded after {nodes} nodes (cap {max_nodes})")
        self.nodes = nodes
        self.max_nodes = max_nodes


class InternalInvariantError(RuntimeError):
    """A property the algorithms guarantee failed to hold: a bug, not bad input."""


class Topology(Enum):
    PATH = "path"
    CYCLE = "cycle"


def as_lists(lists: Iterable[Iterable[int]]) -> ListAssignment:
    """Coerce per-vertex color collections into a tuple of frozensets.

    Duplicate colors within one entry collapse silently; lists are sets.
    Every color must be a non-negative integer, whatever the input's type.
    """
    out = []
    for entry in lists:
        colors = frozenset(entry)
        for color in colors:
            # the plain-int test alone passes nearly every color
            if type(color) is not int or color < 0:
                if not isinstance(color, int) or isinstance(color, bool) or color < 0:
                    raise InvalidInputError(
                        f"colors must be non-negative integers, got {color!r}"
                    )
        out.append(colors)
    return tuple(out)


def as_weights(weights: Iterable[int]) -> Weights:
    out = tuple(weights)
    for wv in out:
        # the plain-int test alone passes nearly every weight
        if type(wv) is not int or wv < 0:
            if not isinstance(wv, int) or isinstance(wv, bool) or wv < 0:
                raise InvalidInputError(f"weights must be non-negative integers, got {wv!r}")
    return out


_set = object.__setattr__


class _Record:
    """An immutable value whose fields are its ``__slots__``, in order.

    Equal to another record of exactly its type with equal fields, hashed
    by its fields and shown as ``Name(field=value, ...)``.  Only the
    constructor sets fields, through ``_set``; assigning or deleting one
    afterwards raises ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} field {name!r} is read-only")

    __delattr__ = __setattr__


class Instance(_Record):
    """A weighted path or cycle together with its list assignment.

    Construction is where input gets checked: a public operation coerces
    its lists and weights once, through here (or ``as_lists`` and
    ``as_weights`` where no instance is involved), and hands the checked
    tuples inward.
    """

    __slots__ = ("topology", "weights", "lists")

    def __init__(self, topology: Topology, weights: Weights, lists: ListAssignment) -> None:
        _set(self, "topology", topology)
        _set(self, "weights", weights)
        _set(self, "lists", lists)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.topology, Topology):
            raise InvalidInputError(f"topology must be a Topology, got {self.topology!r}")
        _set(self, "weights", as_weights(self.weights))
        _set(self, "lists", as_lists(self.lists))
        if len(self.weights) != len(self.lists):
            raise InvalidInputError(
                f"{len(self.weights)} weights for {len(self.lists)} lists"
            )
        n = len(self.weights)
        if self.topology is Topology.PATH and n < 1:
            raise InvalidInputError("a path needs at least one vertex")
        if self.topology is Topology.CYCLE and n < 3:
            raise InvalidInputError("a cycle needs at least three vertices")

    @classmethod
    def path(cls, weights: Iterable[int], lists: Iterable[Iterable[int]]) -> Instance:
        return cls(Topology.PATH, tuple(weights), tuple(lists))

    @classmethod
    def cycle(cls, weights: Iterable[int], lists: Iterable[Iterable[int]]) -> Instance:
        return cls(Topology.CYCLE, tuple(weights), tuple(lists))

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    def edges(self) -> Iterator[tuple[int, int]]:
        n = self.n_vertices
        for v in range(n - 1):
            yield v, v + 1
        if self.topology is Topology.CYCLE and n > 1:
            yield n - 1, 0


class Certificate(_Record):
    """Interval witness for non-colorability.

    ``amplitude_size`` is the counting bound obtained for vertices ``i..j``
    (the amplitude size for waterfall checks, the Hall alpha sum for general
    paths) and ``demand`` the total weight of the interval.  Certificates
    coming from a violated interval check always satisfy
    ``amplitude_size < demand``; the brute-force oracle reports a summary
    certificate over the whole instance that need not.
    """

    __slots__ = ("i", "j", "amplitude_size", "demand")

    def __init__(self, i: int, j: int, amplitude_size: int, demand: int) -> None:
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "amplitude_size", amplitude_size)
        _set(self, "demand", demand)


class Decision(_Record):
    """Outcome of a colorability check: a coloring or a certificate."""

    __slots__ = ("colorable", "coloring", "certificate")

    def __init__(
        self,
        colorable: bool,
        coloring: Coloring | None = None,
        certificate: Certificate | None = None,
    ) -> None:
        if colorable and (coloring is None or certificate is not None):
            raise InvalidInputError("a colorable decision carries exactly a coloring")
        if not colorable and (certificate is None or coloring is not None):
            raise InvalidInputError("a non-colorable decision carries exactly a certificate")
        _set(self, "colorable", colorable)
        _set(self, "coloring", coloring)
        _set(self, "certificate", certificate)


def validate_coloring(inst: Instance, coloring: Iterable[Iterable[int]]) -> bool:
    """Check that ``coloring`` is a proper list multicoloring of ``inst``.

    True iff every vertex gets exactly ``w(v)`` colors, all from ``L(v)``,
    and the endpoints of every edge (wrap edge included) receive disjoint
    sets.  A coloring with the wrong number of entries is rejected outright.
    """
    return _proper(inst.lists, inst.weights, coloring, inst.edges())


def _proper(L: Sequence[AbstractSet[int]], w: Weights, coloring, edges) -> bool:
    """``validate_coloring`` on lists and weights already checked."""
    c = tuple(frozenset(entry) for entry in coloring)
    if len(c) != len(L):
        raise InvalidInputError(f"coloring has {len(c)} entries for {len(L)} vertices")
    for v in range(len(L)):
        if len(c[v]) != w[v] or not c[v] <= L[v]:
            return False
    return all(not (c[u] & c[v]) for u, v in edges)


def amplitude(lists: Iterable[Iterable[int]], i: int, j: int) -> frozenset[int]:
    """Union of the lists of vertices ``i..j`` (inclusive)."""
    L = as_lists(lists)
    if not 0 <= i <= j < len(L):
        raise InvalidInputError(f"interval ({i}, {j}) out of range for {len(L)} vertices")
    return frozenset().union(*L[i : j + 1])


def is_good(lists: Iterable[Iterable[int]], weights: Iterable[int]) -> bool:
    """Whether every interior vertex satisfies ``|L(i)| >= w(i) + w(i+1)``.

    Endpoints carry no constraint; single-vertex and two-vertex paths are
    vacuously good.
    """
    L = as_lists(lists)
    w = as_weights(weights)
    if len(L) != len(w):
        raise InvalidInputError(f"{len(w)} weights for {len(L)} lists")
    return _is_good(L, w)


def _is_good(L: ListAssignment, w: Weights) -> bool:
    return all(len(L[i]) >= w[i] + w[i + 1] for i in range(1, len(L) - 1))


def is_waterfall(lists: Iterable[Iterable[int]]) -> bool:
    """Whether each color occupies at most two, necessarily consecutive, vertices."""
    return _is_waterfall(as_lists(lists))


def _is_waterfall(L: ListAssignment) -> bool:
    spans: dict[int, tuple[int, int]] = {}
    for v, colors in enumerate(L):
        for x in colors:
            span = spans.get(x)
            if span is None:
                spans[x] = (v, v)
            elif span == (v - 1, v - 1):
                spans[x] = (v - 1, v)
            else:
                return False
    return True
