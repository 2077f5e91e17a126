"""Shared builders and enumerators for the test suite."""

from __future__ import annotations

import itertools
import random

from choosable import Instance


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
