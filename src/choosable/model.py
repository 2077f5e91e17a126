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
every result depends on the arguments alone (``waterfall`` keeps its last
plan, an immutable value, in a thread-safe memo), so concurrent use is safe.
"""

from __future__ import annotations

from enum import Enum
from typing import AbstractSet, Iterable, Sequence

ListAssignment = tuple[frozenset[int], ...]
Weights = tuple[int, ...]
Coloring = tuple[frozenset[int], ...]
_REREAD = (frozenset, list, tuple, set)  # color collections that can be read twice


class InvalidInputError(ValueError):
    """Arguments violate a documented invariant of the operation."""


class PreconditionError(InvalidInputError):
    """A stated hypothesis of the operation does not hold for the input."""


class NotGoodError(PreconditionError):
    """The list misses the good-list bound at an interior vertex."""


class NotWaterfallError(PreconditionError):
    """The list assignment is not in waterfall form."""


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


# Bound once: on Python 3.11 ``Topology.PATH`` is an ``EnumType.__getattr__`` call.
_PATH, _CYCLE = Topology.PATH, Topology.CYCLE


def _int_at_least(value, least: int, message: str, error=InvalidInputError) -> int:
    """``value`` if it is an int, not a bool, and at least ``least``; else ``error``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise error(f"{message}, got {value!r}")
    return value


def as_lists(lists: Iterable[Iterable[int]]) -> ListAssignment:
    """Coerce per-vertex color collections into a tuple of frozensets.

    Duplicate colors within one entry collapse silently; lists are sets.
    Every color must be a non-negative integer, whatever the input's type,
    and is kept as a plain ``int``.
    """
    try:
        return _frozensets(lists)
    except TypeError as exc:
        raise InvalidInputError(f"lists must be collections of colors: {exc}") from None


def _frozensets(entries) -> tuple[frozenset[int], ...]:
    """Each entry as a frozenset, each color checked as given: a frozenset drops 1.0 beside 1."""
    out = []
    for entry in entries:
        if type(entry) not in _REREAD:  # read an iterator once
            entry = tuple(entry)
        out.append(frozenset(entry))
        for color in entry:
            # the plain-int test alone passes nearly every color
            if type(color) is not int or color < 0:
                for c in entry:  # the first bad color in order is the one named
                    _int_at_least(c, 0, "colors must be non-negative integers")
                out[-1] = frozenset(map(int, entry))  # an int subclass kept as an int
                break
    return tuple(out)


def as_weights(weights: Iterable[int]) -> Weights:
    try:
        out = tuple(weights)
    except TypeError as exc:
        raise InvalidInputError(f"weights must be a collection of integers: {exc}") from None
    for wv in out:
        # the plain-int test alone passes nearly every weight
        if type(wv) is not int or wv < 0:
            _int_at_least(wv, 0, "weights must be non-negative integers")
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
        if other is self:
            return True
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

    def __init__(
        self, topology: Topology, weights: Iterable[int], lists: Iterable[Iterable[int]]
    ) -> None:
        self.__post_init__(topology, weights, lists)

    # The whole constructor, under the name the benchmark's span tracer
    # (bench/spans.py) times as the model.instance layer.
    def __post_init__(
        self, topology: Topology, weights: Iterable[int], lists: Iterable[Iterable[int]]
    ) -> None:
        if not isinstance(topology, Topology):
            raise InvalidInputError(f"topology must be a Topology, got {topology!r}")
        weights = as_weights(weights)
        lists = as_lists(lists)
        n = len(weights)
        if n != len(lists):
            raise InvalidInputError(f"{n} weights for {len(lists)} lists")
        if topology is _PATH and n < 1:
            raise InvalidInputError("a path needs at least one vertex")
        if topology is _CYCLE and n < 3:
            raise InvalidInputError("a cycle needs at least three vertices")
        _set(self, "topology", topology)
        _set(self, "weights", weights)
        _set(self, "lists", lists)

    @classmethod
    def path(cls, weights: Iterable[int], lists: Iterable[Iterable[int]]) -> Instance:
        return cls(_PATH, weights, lists)

    @classmethod
    def cycle(cls, weights: Iterable[int], lists: Iterable[Iterable[int]]) -> Instance:
        return cls(_CYCLE, weights, lists)

    @property
    def n_vertices(self) -> int:
        return len(self.weights)


class FreeChoiceInstance(_Record):
    """A cycle instance with the color set of one vertex pinned in advance."""

    __slots__ = ("cycle", "v0", "forced")

    def __init__(self, cycle: Instance, v0: int, forced: frozenset[int]) -> None:
        (forced,) = as_lists((forced,))
        if not isinstance(cycle, Instance) or cycle.topology is not _CYCLE:
            raise InvalidInputError("free choice instances are rooted in cycles")
        if _int_at_least(v0, 0, "v0 must be a non-negative integer") >= cycle.n_vertices:
            raise InvalidInputError(f"v0 = {v0} out of range")
        if len(forced) != cycle.weights[v0]:
            raise InvalidInputError(
                f"forced set has {len(forced)} colors, vertex {v0} "
                f"demands {cycle.weights[v0]}"
            )
        if not forced <= cycle.lists[v0]:
            raise InvalidInputError("forced colors must come from the list at v0")
        _set(self, "cycle", cycle)
        _set(self, "v0", v0)
        _set(self, "forced", forced)


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


class SearchBudget(_Record):
    """Cap on attempted assignments across the whole search.

    Kept beside ``BudgetExceededError`` so that the command line reads its
    default without loading the oracle.
    """

    __slots__ = ("max_nodes",)

    def __init__(self, max_nodes: int = 10_000_000) -> None:
        max_nodes = _int_at_least(max_nodes, 1, "max_nodes must be a positive integer")
        _set(self, "max_nodes", max_nodes)


def validate_coloring(
    inst: Instance | FreeChoiceInstance, coloring: Iterable[Iterable[int]]
) -> bool:
    """Check that ``coloring`` is a proper list multicoloring of ``inst``.

    True iff every vertex gets exactly ``w(v)`` colors, all from ``L(v)``,
    and the endpoints of every edge (wrap edge included) receive disjoint
    sets; on a pinned cycle, ``v0`` must also get exactly the forced set.
    A coloring with the wrong number of entries, or with a color that is
    not a non-negative integer, raises ``InvalidInputError``.
    """
    if isinstance(inst, FreeChoiceInstance):
        c = _proper(inst.cycle.lists, inst.cycle.weights, coloring, True)
        return c is not None and c[inst.v0] == inst.forced
    return _proper(inst.lists, inst.weights, coloring, inst.topology is _CYCLE) is not None


def _proper(L: Sequence[AbstractSet[int]], w: Weights, coloring, wrap: bool) -> Coloring | None:
    """``validate_coloring`` on checked lists and weights: the coloring if proper, else None."""
    try:
        c = _frozensets(coloring)
    except TypeError as exc:
        raise InvalidInputError(f"a coloring must be collections of colors: {exc}") from None
    if len(c) != len(L):
        raise InvalidInputError(f"coloring has {len(c)} entries for {len(L)} vertices")
    return c if _fits(L, w, c, wrap) else None


def _fits(L: Sequence[AbstractSet[int]], w: Weights, c: Coloring, wrap: bool) -> bool:
    """Whether each c(v) is w(v) colors of L(v) missing c(v+1), and c(n-1) c(0) if ``wrap``."""
    for v in range(len(L)):
        if len(c[v]) != w[v] or not c[v] <= L[v]:
            return False
    return all(map(frozenset.isdisjoint, c, c[1:])) and not (wrap and c[-1] & c[0])


def amplitude(lists: Iterable[Iterable[int]], i: int, j: int) -> frozenset[int]:
    """Union of the lists of vertices ``i..j`` (inclusive)."""
    L = as_lists(lists)
    _check_interval(i, j, len(L))
    return frozenset().union(*L[i : j + 1])


def _check_interval(i, j, m: int) -> None:
    """Raise ``InvalidInputError`` unless the ends are plain ints, ``0 <= i <= j < m``."""
    if type(i) is not int or type(j) is not int or not 0 <= i <= j < m:
        message = f"interval ({i!r}, {j!r}) out of range for {m} vertices"
        _int_at_least(i, 0, message)  # words a bool, float or negative end
        _int_at_least(j, 0, message)
        raise InvalidInputError(message)


def is_good(lists: Iterable[Iterable[int]], weights: Iterable[int]) -> bool:
    """Whether every interior vertex satisfies ``|L(i)| >= w(i) + w(i+1)``.

    Endpoints carry no constraint; single-vertex and two-vertex paths are
    vacuously good.  The input is checked as ``Instance.path`` checks it.
    """
    inst = Instance.path(weights, lists)
    try:
        _check_good(inst.lists, inst.weights)
    except NotGoodError:
        return False
    return True


def _check_good(L: ListAssignment, w: Weights) -> None:
    """Raise ``NotGoodError`` naming the first interior vertex off the good bound."""
    for i in range(1, len(L) - 1):
        if len(L[i]) < w[i] + w[i + 1]:
            raise NotGoodError(
                f"list is not good: interior vertex {i} has |L({i})| = {len(L[i])} "
                f"< w({i}) + w({i + 1}) = {w[i] + w[i + 1]}"
            )


def is_waterfall(lists: Iterable[Iterable[int]]) -> bool:
    """Whether each color occupies at most two, necessarily consecutive, vertices."""
    return _is_waterfall(as_lists(lists))


def _is_waterfall(L: ListAssignment) -> bool:
    # Waterfall form means no color sits on two lists at distance two or
    # more.  ``before`` is the union of L(0..v-2): a color of L(v) may also
    # sit on L(v-1), but never on an earlier list.
    before: set[int] = set()
    prev: frozenset[int] = frozenset()
    for colors in L:
        if not before.isdisjoint(colors):
            return False
        before |= prev
        prev = colors
    return True
