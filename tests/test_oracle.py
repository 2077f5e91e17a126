import hashlib
import random
import re
import tracemalloc

import pytest

from choosable import (
    BudgetExceededError,
    Certificate,
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    SearchBudget,
    brute_force,
    brute_force_forced,
    counterexample_list,
    validate_coloring,
)
from helpers import L, planted_good_path, reference_search


class TestBruteForce:
    def test_shared_singleton_infeasible(self):
        d = brute_force(Instance.path((1, 1), L({1}, {1})))
        assert not d.colorable
        assert d.certificate == Certificate(0, 1, 1, 2)

    def test_odd_cycle_two_colors(self):
        d = brute_force(Instance.cycle((1, 1, 1), L({1, 2}, {1, 2}, {1, 2})))
        assert not d.colorable

    def test_even_cycle_two_colors(self):
        d = brute_force(Instance.cycle((1, 1, 1, 1), L({1, 2}, {1, 2}, {1, 2}, {1, 2})))
        assert d.colorable

    def test_lexicographically_first_solution(self):
        d = brute_force(Instance.path((1, 2, 1), L({1, 2}, {2, 3, 4}, {4, 5})))
        assert d.coloring == L({1}, {2, 3}, {4})

    def test_zero_weights(self):
        d = brute_force(Instance.path((0, 0), L(set(), {5})))
        assert d.colorable and d.coloring == L(set(), set())

    def test_summary_certificate_recomputes(self):
        inst = Instance.path((2, 2), L({1, 2}, {1, 2, 3}))
        d = brute_force(inst)
        assert d.certificate == Certificate(0, 1, 3, 4)

    def test_budget_exceeded_reports_nodes(self):
        inst = Instance.path((1,) * 6, L(*[{1, 2, 3, 4} for _ in range(6)]))
        with pytest.raises(BudgetExceededError) as exc:
            brute_force(inst, SearchBudget(max_nodes=5))
        assert exc.value.nodes == 6
        assert exc.value.max_nodes == 5

    @pytest.mark.parametrize("max_nodes", [2.5, 3.0, "3", True, None])
    def test_budget_must_be_a_plain_integer(self, max_nodes):
        message = f"max_nodes must be a positive integer, got {max_nodes!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SearchBudget(max_nodes)

    @pytest.mark.parametrize("max_nodes", [0, -1])
    def test_budget_must_be_positive(self, max_nodes):
        message = f"max_nodes must be a positive integer, got {max_nodes}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SearchBudget(max_nodes)

    def test_budget_caps_memory_on_wide_lists(self):
        # C(20, 10) = 184,756 candidates a vertex: drawn lazily, only the
        # nodes visited before the budget trips cost anything
        inst = Instance.path((10, 10), [range(20)] * 2)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as exc:
                brute_force(inst, SearchBudget(1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.nodes == 1001
        assert peak < 4 * 2**20

    def test_outcomes_golden(self):
        # a seeded corpus of paths, plain cycles and pinned cycles of 1-6
        # vertices, each under small node caps and the default budget: the
        # decision, the first coloring, the certificate and the node count
        # where each cap trips are pinned by one digest
        rng = random.Random(5)
        outcomes = []
        for _ in range(2000):
            m = rng.randint(1, 6)
            kind = rng.choice(("path", "cycle", "pinned")) if m >= 3 else "path"
            palette = rng.sample([0, 1, 2, 3, 5, 8, 2**40], rng.randint(1, 7))
            lists = [rng.sample(palette, rng.randint(0, len(palette))) for _ in range(m)]
            w = [rng.randint(0, min(3, len(entry) + 1)) for entry in lists]
            if kind == "path":
                inst, search = Instance.path(w, lists), brute_force
            elif kind == "cycle":
                inst, search = Instance.cycle(w, lists), brute_force
            else:
                v0 = rng.randrange(m)
                w[v0] = min(w[v0], len(lists[v0]))
                forced = rng.sample(lists[v0], w[v0])
                inst = FreeChoiceInstance(Instance.cycle(w, lists), v0, forced)
                search = brute_force_forced
            for cap in (1, 2, 5, 10, None):
                try:
                    d = search(inst, SearchBudget(cap) if cap else None)
                except BudgetExceededError as exc:
                    outcomes.append(("budget", exc.nodes, exc.max_nodes))
                    continue
                coloring = d.coloring and tuple(tuple(sorted(entry)) for entry in d.coloring)
                cert = d.certificate
                cert = cert and (cert.i, cert.j, cert.amplitude_size, cert.demand)
                outcomes.append((d.colorable, coloring, cert))
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "62c3cf2dc1f8d003136237b91839a5b80a24d4dee21d8678ef44710fa2512038"

    def test_long_path_memory(self):
        # the kept sets and one candidate iterator a vertex; the bitmask
        # search this replaced peaked at 4.34-4.60 MiB on Python 3.11.7
        w, lists = planted_good_path(1, 10**4)
        inst = Instance.path(w, lists)
        tracemalloc.start()
        try:
            d = brute_force(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.colorable
        assert peak < 4.6 * 2**20

    def test_long_path_needs_no_recursion(self):
        w, lists = planted_good_path(1, 1200)
        inst = Instance.path(w, lists)
        d = brute_force(inst)
        assert d.colorable and validate_coloring(inst, d.coloring)

    def test_huge_color_values(self):
        big = 2**62
        inst = Instance.path((1, 2, 1), L({big, 1}, {big, big + 1, 3}, {big + 1}))
        d = brute_force(inst)
        assert d.coloring == L({1}, {3, big}, {big + 1})

    def test_verdict_invariant_under_relabeling(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(1, 5)
            lists = [
                frozenset(rng.sample(range(6), rng.randint(0, 3))) for _ in range(m)
            ]
            w = tuple(rng.randint(0, 2) for _ in range(m))
            perm = list(range(6))
            rng.shuffle(perm)
            relabeled = [frozenset(perm[c] for c in entry) for entry in lists]
            assert (
                brute_force(Instance.path(w, lists)).colorable
                == brute_force(Instance.path(w, relabeled)).colorable
            )

    def test_verdict_invariant_under_reversal(self):
        rng = random.Random(4)
        for _ in range(200):
            m = rng.randint(1, 5)
            lists = [
                frozenset(rng.sample(range(6), rng.randint(0, 3))) for _ in range(m)
            ]
            w = [rng.randint(0, 2) for _ in range(m)]
            assert (
                brute_force(Instance.path(w, lists)).colorable
                == brute_force(Instance.path(w[::-1], lists[::-1])).colorable
            )


def small_searches():
    """Seeded paths, plain cycles and pinned cycles of 3-9 vertices."""
    rng = random.Random(11)
    for _ in range(4000):
        m = rng.randint(3, 9)
        palette = [2**62] + rng.sample([0, 1, 2, 3, 5, 2**62 + 1], rng.randint(1, 6))
        lists = [rng.sample(palette, rng.randint(0, len(palette))) for _ in range(m)]
        w = [rng.randint(0, min(3, len(entry))) for entry in lists]
        kind = rng.choice(("path", "cycle", "pinned"))
        if kind == "path":
            yield Instance.path(w, lists)
        elif kind == "cycle":
            yield Instance.cycle(w, lists)
        else:
            v0 = rng.randrange(m)
            w[v0] = min(w[v0], len(lists[v0]))
            yield FreeChoiceInstance(Instance.cycle(w, lists), v0, rng.sample(lists[v0], w[v0]))


def c8_searches():
    """Pinned 6-cycles with weight 3 and 7-color lists, drawn as acceptance test C8 draws them."""
    rng = random.Random(12)
    for _ in range(300):
        lists = [rng.sample(range(rng.randint(7, 14)), 7) for _ in range(6)]
        v0 = rng.randrange(6)
        yield FreeChoiceInstance(Instance.cycle((3,) * 6, lists), v0, rng.sample(lists[v0], 3))


SEARCH_FAMILIES = {
    "planted-paths": lambda: (
        Instance.path(*planted_good_path(seed, m)) for seed in range(4) for m in (300, 1200)
    ),
    "small": small_searches,
    "c8-cycles": c8_searches,
}


@pytest.mark.parametrize("family", sorted(SEARCH_FAMILIES))
def test_search_matches_the_bitmask_search(family):
    # the same decision, and a cap that trips exactly where the reference
    # counted its last node: the enumeration visits the same nodes
    for target in SEARCH_FAMILIES[family]():
        if isinstance(target, FreeChoiceInstance):
            search, inst, pinned = brute_force_forced, target.cycle, (target.v0, target.forced)
        else:
            search, inst, pinned = brute_force, target, None
        expected, nodes = reference_search(inst, pinned)
        assert search(target, SearchBudget(max(nodes, 1))) == expected
        if nodes > 1:
            with pytest.raises(BudgetExceededError) as exc:
                search(target, SearchBudget(nodes - 1))
            assert (exc.value.nodes, exc.value.max_nodes) == (nodes, nodes - 1)


class TestBruteForceForced:
    def test_counterexample_within_small_budget(self):
        # the whole refutation fits in under a thousand nodes
        d = brute_force_forced(counterexample_list(4, 2, 4), SearchBudget(max_nodes=1000))
        assert not d.colorable

    def test_triangle_extends(self):
        fi = FreeChoiceInstance(
            Instance.cycle((1, 1, 1), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3})),
            0,
            frozenset({1}),
        )
        d = brute_force_forced(fi)
        assert d.colorable and d.coloring[0] == {1}
        assert validate_coloring(fi.cycle, d.coloring)

    def test_five_lists_on_square(self):
        lists = L(*[set(range(1, 6)) for _ in range(4)])
        fi = FreeChoiceInstance(Instance.cycle((2,) * 4, lists), 0, frozenset({1, 2}))
        d = brute_force_forced(fi)
        assert d.colorable and d.coloring[0] == {1, 2}

    def test_search_starts_at_the_pinned_vertex(self):
        # an acceptance-test C8 shape, (a, b, n) = (7, 3, 6), pinned at vertex
        # 5: searched from vertex 0, the pin and the wrap edge were met only
        # at the end, after tens of thousands of nodes
        lists = L(
            {0, 1, 2, 3, 7, 9, 11},
            {0, 1, 5, 6, 8, 9, 11},
            {0, 1, 4, 5, 8, 9, 10},
            {2, 4, 5, 7, 9, 10, 11},
            {2, 3, 5, 8, 9, 10, 12},
            {0, 2, 4, 5, 7, 8, 12},
        )
        fi = FreeChoiceInstance(Instance.cycle((3,) * 6, lists), 5, frozenset({2, 8, 12}))
        d = brute_force_forced(fi, SearchBudget(max_nodes=1000))
        assert d.colorable and d.coloring[5] == {2, 8, 12}
        assert validate_coloring(fi.cycle, d.coloring)

    def test_pin_respected_at_interior_vertex(self):
        lists = L({1, 2}, {1, 2, 3}, {2, 3, 4})
        fi = FreeChoiceInstance(Instance.cycle((1, 1, 1), lists), 1, frozenset({3}))
        d = brute_force_forced(fi)
        assert d.colorable and d.coloring[1] == {3}
