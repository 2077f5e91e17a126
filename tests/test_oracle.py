import random

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
from helpers import L, planted_good_path


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
        with pytest.raises(InvalidInputError, match="max_nodes must be an integer"):
            SearchBudget(max_nodes)

    @pytest.mark.parametrize("max_nodes", [0, -1])
    def test_budget_must_be_positive(self, max_nodes):
        with pytest.raises(InvalidInputError, match="max_nodes must be positive"):
            SearchBudget(max_nodes)

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
