"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a ``Case``: an
instance document in the command line's JSON schema, the verdict its
construction guarantees (if any) and the planted coloring (if any).  The
program under test only ever sees the documents.

The constructions lean on facts from the paper, which the checker then
holds the program to:

* a planted coloring makes an instance colorable;
* two adjacent vertices whose lists' union is smaller than their total
  weight make it not colorable;
* a pinned cycle with ``a/b >= 2 + 1/floor(n/2)`` is colorable;
* the even-cycle counterexample lists, below that ratio, are not.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass
class Case:
    family: str
    doc: dict
    expect: str | None = None  # "colorable", "not_colorable" or None
    coloring: list[list[int]] | None = None  # planted coloring, if any

    @property
    def lists(self) -> list[list[int]]:
        return self.doc["lists"]

    @property
    def weights(self) -> list[int]:
        return self.doc["weights"]


def _path(weights: list[int], lists: list[list[int]]) -> dict:
    return {"graph": "path", "weights": weights, "lists": [sorted(entry) for entry in lists]}


def planted_path(
    rng: random.Random, weights: list[int], sizes: list[int], pool: int, family: str
) -> Case:
    """Path whose lists hide a coloring: c(v) avoids c(v-1), L(v) adds extras.

    ``sizes[v]`` must be at least ``weights[v]`` and at most ``pool``.
    """
    colors = range(1, pool + 1)
    coloring, lists = [], []
    prev: set[int] = set()
    for wv, size in zip(weights, sizes):
        chosen = rng.sample([x for x in colors if x not in prev], wv)
        extra = rng.sample([x for x in colors if x not in chosen], size - wv)
        coloring.append(sorted(chosen))
        lists.append(chosen + extra)
        prev = set(chosen)
    return Case(family, _path(weights, lists), "colorable", coloring)


def uniform_good_path(rng: random.Random, m: int) -> Case:
    """Good uniform lists: 6 of 12 colors, weight 2, planted coloring."""
    return planted_path(rng, [2] * m, [6] * m, 12, "good_uniform")


def non_good_path(rng: random.Random, m: int) -> Case:
    """Weights 1, 2, 3, 1, 2, 3, ... with |L(v)| = w(v-1) + w(v).

    Colorable (a planted coloring, and greedy never gets stuck), but the
    good bound |L(v)| >= w(v) + w(v+1) fails at every vertex of weight 2,
    so the decider cannot take the waterfall detour.
    """
    weights = [1 + v % 3 for v in range(m)]
    sizes = [weights[0]] + [weights[v - 1] + weights[v] for v in range(1, m)]
    return planted_path(rng, weights, sizes, 12, "non_good")


def good_small_path(rng: random.Random, m: int) -> Case:
    """Good lists over five colors with weights 0..2 and a planted coloring."""
    weights = [rng.randint(0, 2) for _ in range(m)]
    sizes = []
    for v in range(m):
        need = weights[v] + (weights[v + 1] if 0 < v < m - 1 else 0)
        sizes.append(min(5, need + rng.randint(0, 1)))
    return planted_path(rng, weights, sizes, 5, "good_small")


def _subsets(colors: int, sizes: range) -> list[list[int]]:
    return [list(c) for k in sizes for c in itertools.combinations(range(1, colors + 1), k)]


def _is_waterfall(lists: list[list[int]]) -> bool:
    """Every color on at most two vertices, and those two adjacent."""
    first: dict[int, int] = {}  # color -> its first vertex, or -2 once seen twice
    for v, entry in enumerate(lists):
        for color in entry:
            if color in first and first[color] != v - 1:
                return False
            first[color] = -2 if color in first else v
    return True


def random_p4_path(rng: random.Random) -> Case:
    """A uniform draw from acceptance test C2's family: P4, lists of at most
    three of four colors, weights 0..2."""
    subsets = _subsets(4, range(4))
    lists = [rng.choice(subsets) for _ in range(4)]
    return Case("p4", _path([rng.randint(0, 2) for _ in range(4)], lists))


# Waterfall lists of length m over five colors, sizes 0..3, times the 3^m
# weight vectors: the instances acceptance test C1 enumerates, per m.
C1_INSTANCES = {1: 26 * 3, 2: 676 * 9, 3: 5746 * 27, 4: 27476 * 81}


def random_waterfall_path(rng: random.Random) -> Case:
    """A uniform draw from acceptance test C1's family, by rejection."""
    m = rng.choices(list(C1_INSTANCES), weights=list(C1_INSTANCES.values()))[0]
    subsets = _subsets(5, range(4))
    while True:
        lists = [rng.choice(subsets) for _ in range(m)]
        if _is_waterfall(lists):
            return Case("waterfall", _path([rng.randint(0, 2) for _ in range(m)], lists))


def similarity_path(rng: random.Random) -> Case:
    """A uniform draw from acceptance test C3's family.

    C3 runs 31 * 25 * 25 * 31 = 600,625 weight-1 paths whose end lists are
    any subset of at most four of five colors and whose inner lists hold two
    to four, then 10,000 good lists with weights 0..2.
    """
    if rng.randrange(610_625) < 600_625:
        ends, mids = _subsets(5, range(5)), _subsets(5, range(2, 5))
        lists = [rng.choice(ends), rng.choice(mids), rng.choice(mids), rng.choice(ends)]
        return Case("similarity", _path([1] * 4, lists))
    while True:
        lists = [rng.sample(range(1, 6), rng.randint(0, 4)) for _ in range(4)]
        weights = [rng.randint(0, 2) for _ in range(4)]
        if all(len(lists[v]) >= weights[v] + weights[v + 1] for v in (1, 2)):
            return Case("similarity", _path(weights, lists))


def pair_violation_path(rng: random.Random, m: int, at: int, size: int, pool: int) -> Case:
    """Random weight-1 lists with one adjacent pair that cannot be colored.

    Vertices ``at`` and ``at + 1`` share one list S of 2 or 3 colors and
    their weights add up to |S| + 1; every other list has ``size`` colors.
    """
    lists = [rng.sample(range(1, pool + 1), size) for _ in range(m)]
    weights = [1] * m
    union = rng.sample(range(1, pool + 1), rng.randint(2, 3))
    lists[at] = list(union)
    lists[at + 1] = list(union)
    weights[at] = rng.randint(1, len(union))
    weights[at + 1] = len(union) + 1 - weights[at]
    return Case("pair_violation", _path(weights, lists), "not_colorable")


def good_waterfall_path(
    rng: random.Random, m: int, weights: list[int], short_first: bool = False
) -> Case:
    """Good waterfall lists with a planted coloring, fresh labels throughout.

    Each list shares a few of the colors first seen at the previous vertex
    and adds fresh ones.  With ``short_first`` the first list keeps only
    w(0) - 1 colors, so the instance is not colorable.
    """
    lists, coloring = [], []
    fresh = 1
    new_prev: list[int] = []
    chosen_prev: set[int] = set()
    for v in range(m):
        size = weights[v] + (weights[v + 1] if v + 1 < m else 0) + rng.randint(0, 1)
        shared = rng.sample(new_prev, rng.randint(0, min(len(new_prev), size - weights[v])))
        new = list(range(fresh, fresh + size - len(shared)))
        fresh += len(new)
        entry = shared + new
        chosen = rng.sample([x for x in entry if x not in chosen_prev], weights[v])
        lists.append(entry)
        coloring.append(sorted(chosen))
        new_prev, chosen_prev = new, set(chosen)
    if short_first and weights[0] > 0:
        lists[0] = rng.sample(lists[0], weights[0] - 1)
        return Case("good_waterfall", _path(weights, lists), "not_colorable")
    return Case("good_waterfall", _path(weights, lists), "colorable", coloring)


def endpoint_path(rng: random.Random) -> Case:
    """Ends of 2 and interiors of 5 colors out of 7, weight 2, four edges.

    The paper's endpoint bound (n >= even_ceil(2b / (a - 2b)) = 4 for
    a = 5, b = 2) makes every such list colorable.
    """
    lists = [rng.sample(range(1, 8), k) for k in (2, 5, 5, 5, 2)]
    return Case("endpoint", _path([2] * 5, lists), "colorable")


def pinned_cycle(rng: random.Random, n: int, a: int, b: int, pool: int) -> Case:
    """Random a-lists on the n-cycle, b colors pinned at a random vertex.

    Colorable by the paper's theorem when floor(n/2) * (a - 2b) >= b.
    """
    lists = [sorted(rng.sample(range(pool), a)) for _ in range(n)]
    v0 = rng.randrange(n)
    forced = sorted(rng.sample(lists[v0], b))
    doc = {
        "graph": "cycle",
        "weights": [b] * n,
        "lists": lists,
        "forced": {"vertex": v0, "colors": forced},
    }
    expect = "colorable" if (n // 2) * (a - 2 * b) >= b else None
    return Case("pinned_cycle", doc, expect)


def counterexample(rng: random.Random, a: int, b: int, n: int) -> Case:
    """The paper's even-cycle lists below the threshold, relabeled and rotated.

    Vertices 0 and 1 carry colors 1..a, later vertices walk through disjoint
    blocks of a colors, offset by b on even vertices, and the last vertex
    holds the pinned colors 1..b again next to the tail of the last block,
    so the choice pinned at vertex 0 is pushed around the cycle into itself.
    A random injective relabeling and a rotation hide the layout.
    """
    if n < 4 or n % 2 or (n // 2) * (a - 2 * b) >= b:
        raise ValueError(f"no counterexample for a={a}, b={b}, n={n}")
    base = []
    for i in range(n):
        if i <= 1:
            lo, hi = 1, a
        elif i == n - 1:
            block = (n - 4) // 2 + 1
            base.append(list(range(1, b + 1)) + list(range(block * a + 1, (block + 1) * a - b + 1)))
            continue
        elif i % 2:
            lo = (i - 1) // 2 * a + 1
            hi = lo + a - 1
        else:
            lo = b + (i - 2) // 2 * a + 1
            hi = lo + a - 1
        base.append(list(range(lo, hi + 1)))
    top = max(max(entry) for entry in base)
    relabel = dict(zip(range(1, top + 1), rng.sample(range(1, 2 * top + 1), top)))
    shift = rng.randrange(n)
    lists: list[list[int]] = [[] for _ in range(n)]
    for i, entry in enumerate(base):
        lists[(i + shift) % n] = sorted(relabel[x] for x in entry)
    doc = {
        "graph": "cycle",
        "weights": [b] * n,
        "lists": lists,
        "forced": {"vertex": shift, "colors": sorted(relabel[x] for x in range(1, b + 1))},
    }
    return Case("counterexample", doc, "not_colorable")


def corrupt(rng: random.Random, coloring: list[list[int]]) -> list[list[int]]:
    """Copy of a coloring with one vertex's set replaced by its neighbour's."""
    out = [list(entry) for entry in coloring]
    v = rng.randrange(1, len(out))
    out[v] = list(out[v - 1])
    return out


# One small_batch batch, 1200 instances: family -> count.  The first three
# are uniform draws from acceptance tests C2, C1 and C3, in proportion to the
# calls those tests make (4,100,625, 2,386,860 and 610,625 instances of
# 7,127,362 in C1-C8), so the batch spends its time as tier-1 does.  The
# families under 1% of those calls, C5's endpoint lists (25,250), C8's
# pinned cycles (4,000) and C7's counterexamples (2), and the prefix pass
# no acceptance test calls, get 12 instances each, so that every call kind
# runs in every round.
SMALL_BATCH = (
    ("p4", 665),
    ("waterfall", 388),
    ("similarity", 99),
    ("endpoint", 12),
    ("pinned_cycle", 12),
    ("counterexample", 12),
    ("good_waterfall", 12),
)

SMALL_CYCLES = ((5, 2, 4), (5, 2, 5), (3, 1, 3), (3, 1, 6))
SMALL_COUNTEREXAMPLES = ((4, 2, 4), (2, 1, 4), (2, 1, 6), (4, 2, 6))


def small_batch(rng: random.Random) -> list[Case]:
    """Tiny instances, at most 6 vertices, in the make-up of ``SMALL_BATCH``."""
    cases = []
    for family, count in SMALL_BATCH:
        for k in range(count):
            if family == "p4":
                cases.append(random_p4_path(rng))
            elif family == "waterfall":
                cases.append(random_waterfall_path(rng))
            elif family == "similarity":
                cases.append(similarity_path(rng))
            elif family == "endpoint":
                cases.append(endpoint_path(rng))
            elif family == "pinned_cycle":
                a, b, n = SMALL_CYCLES[k % len(SMALL_CYCLES)]
                cases.append(pinned_cycle(rng, n, a, b, rng.randint(a, 2 * a)))
            elif family == "counterexample":
                a, b, n = SMALL_COUNTEREXAMPLES[k % len(SMALL_COUNTEREXAMPLES)]
                cases.append(counterexample(rng, a, b, n))
            else:
                m = rng.randint(2, 6)
                weights = [rng.randint(0, 2) for _ in range(m)]
                cases.append(good_waterfall_path(rng, m, weights, short_first=k % 4 == 0))
    return cases
