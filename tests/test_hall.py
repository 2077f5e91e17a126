import itertools
import random

import pytest

from choosable import (
    Certificate,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    NotWaterfallError,
    PreconditionError,
    alpha_path,
    amplitude,
    brute_force,
    construct_coloring_general,
    construct_coloring_waterfall,
    decide_waterfall,
    decide_waterfall_prefix,
    hall_check_path,
    hall_summands,
    validate_coloring,
)
from choosable.hall import _greedy, _hall_scan
from helpers import L, waterfall_lists, weight_vectors


class TestAlphaPath:
    def test_single_run_of_three(self):
        assert alpha_path(L({1}, {1}, {1}), 0, 2, 1) == 2

    def test_two_separated_runs(self):
        assert alpha_path(L({1}, {2}, {1}), 0, 2, 1) == 2

    def test_absent_color(self):
        assert alpha_path(L({1}, {2}, {1}), 0, 2, 5) == 0

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            alpha_path(L({1}, {2}), 0, 2, 1)

    def test_summands_cover_amplitude(self):
        lists = L({1, 2}, {2, 3, 4}, {4, 5})
        summands = hall_summands(lists, 0, 2)
        assert [s.color for s in summands] == sorted(amplitude(lists, 0, 2))
        assert all(s.alpha == alpha_path(lists, 0, 2, s.color) for s in summands)


class TestHallCheckPath:
    def test_single_color_infeasible(self):
        d = hall_check_path(L({1}, {1}, {1}), (1, 1, 1))
        assert not d.colorable
        # lexicographically smallest violating interval: vertices 0..1
        # already fail (alpha 1 < demand 2)
        assert d.certificate == Certificate(0, 1, 1, 2)

    def test_alternating_colorable(self):
        d = hall_check_path(L({1}, {2}, {1}), (1, 1, 1))
        assert d.colorable
        assert d.coloring == L({1}, {2}, {1})

    def test_weighted_example(self):
        lists = L({1, 2}, {2, 3, 4}, {4, 5})
        d = hall_check_path(lists, (1, 2, 1))
        assert d.colorable
        assert validate_coloring(Instance.path((1, 2, 1), lists), d.coloring)
        assert brute_force(Instance.path((1, 2, 1), lists)).colorable

    def test_certificate_alpha_sum_recomputes(self):
        rng = random.Random(11)
        seen = 0
        while seen < 200:
            m = rng.randint(1, 5)
            lists = tuple(
                frozenset(rng.sample(range(4), rng.randint(0, 2))) for _ in range(m)
            )
            w = tuple(rng.randint(0, 2) for _ in range(m))
            d = hall_check_path(lists, w)
            if d.colorable:
                continue
            c = d.certificate
            recomputed = sum(
                alpha_path(lists, c.i, c.j, k) for k in amplitude(lists, c.i, c.j)
            )
            assert c.amplitude_size == recomputed
            assert c.demand == sum(w[c.i : c.j + 1])
            assert c.amplitude_size < c.demand
            seen += 1

    def test_matches_oracle_small_exhaustive(self):
        subsets = [
            frozenset(c)
            for k in range(3)
            for c in itertools.combinations(range(1, 4), k)
        ]
        for m in (1, 2, 3):
            for lists in itertools.product(subsets, repeat=m):
                for w in weight_vectors(m, 2):
                    assert (
                        hall_check_path(lists, w).colorable
                        == brute_force(Instance.path(w, lists)).colorable
                    ), (lists, w)

    def test_monotone_under_list_growth(self):
        rng = random.Random(23)
        grown = 0
        while grown < 300:
            m = rng.randint(1, 5)
            lists = tuple(
                frozenset(rng.sample(range(5), rng.randint(0, 3))) for _ in range(m)
            )
            w = tuple(rng.randint(0, 2) for _ in range(m))
            if not hall_check_path(lists, w).colorable:
                continue
            v = rng.randrange(m)
            extra = rng.randrange(7)
            bigger = lists[:v] + (lists[v] | {extra},) + lists[v + 1 :]
            assert hall_check_path(bigger, w).colorable, (lists, w, v, extra)
            grown += 1

    def test_single_vertex_degenerate(self):
        assert hall_check_path(L(set()), (0,)).colorable
        assert hall_check_path(L({1, 2}, ), (3,)).certificate == Certificate(0, 0, 2, 3)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            hall_check_path(L({1}, {2}), (1,))


class TestDecideWaterfall:
    def test_two_vertex_colorable(self):
        d = decide_waterfall(L({1, 2}, {2, 3}), (1, 1))
        assert d.colorable and d.coloring == L({1}, {2})

    def test_two_vertex_shortfall(self):
        d = decide_waterfall(L({1}, {1}), (1, 1))
        assert d.certificate == Certificate(0, 1, 1, 2)

    def test_weighted_example(self):
        d = decide_waterfall(L({1, 2}, {2, 3, 4}, {4, 5}), (1, 2, 1))
        assert d.colorable
        assert validate_coloring(
            Instance.path((1, 2, 1), L({1, 2}, {2, 3, 4}, {4, 5})), d.coloring
        )

    def test_rejects_non_waterfall(self):
        with pytest.raises(NotWaterfallError):
            decide_waterfall(L({1}, {2}, {1}), (1, 1, 1))

    def test_certificate_amplitude_recomputes(self):
        rng = random.Random(13)
        seen = 0
        while seen < 200:
            m = rng.randint(1, 5)
            lists = []
            banned, prev = set(), set()
            for _ in range(m):
                avail = [c for c in range(6) if c not in banned]
                entry = frozenset(rng.sample(avail, min(rng.randint(0, 2), len(avail))))
                lists.append(entry)
                banned |= prev
                prev = set(entry)
            w = tuple(rng.randint(0, 2) for _ in range(m))
            d = decide_waterfall(tuple(lists), w)
            if d.colorable:
                continue
            c = d.certificate
            assert c.amplitude_size == len(amplitude(lists, c.i, c.j))
            assert c.demand == sum(w[c.i : c.j + 1])
            assert c.amplitude_size < c.demand
            seen += 1

    def test_agrees_with_hall_and_oracle(self):
        universe = tuple(range(1, 5))
        for m in (1, 2, 3):
            for lists in waterfall_lists(universe, 2, m):
                for w in weight_vectors(m, 2):
                    verdicts = {
                        decide_waterfall(lists, w).colorable,
                        hall_check_path(lists, w).colorable,
                        brute_force(Instance.path(w, lists)).colorable,
                    }
                    assert len(verdicts) == 1, (lists, w)


class TestDecideWaterfallPrefix:
    def test_prefix_sizes_exactly_meet_demand(self):
        d = decide_waterfall_prefix(L({1}, {1, 2}, {2, 3}), (1, 1, 1))
        assert d.colorable
        assert validate_coloring(
            Instance.path((1, 1, 1), L({1}, {1, 2}, {2, 3})), d.coloring
        )

    def test_empty_endpoint_list(self):
        d = decide_waterfall_prefix(L(set(), {1, 2}, {2, 3}), (1, 1, 1))
        assert d.certificate == Certificate(0, 0, 0, 1)

    def test_weight_two(self):
        d = decide_waterfall_prefix(L({1, 2}, {1, 2, 3, 4}, {3, 4, 5, 6}), (2, 2, 2))
        assert d.colorable and d.coloring == L({1, 2}, {3, 4}, {5, 6})

    def test_interior_precondition_named(self):
        with pytest.raises(PreconditionError, match=r"interior vertex 1"):
            decide_waterfall_prefix(L({1, 2}, {2}, {3, 4}), (1, 1, 1))

    def test_last_vertex_precondition_named(self):
        with pytest.raises(PreconditionError, match=r"last vertex"):
            decide_waterfall_prefix(L({1, 2}, {2, 3}, set()), (1, 1, 1))

    def test_agrees_with_decide_waterfall_under_preconditions(self):
        universe = tuple(range(1, 6))
        checked = 0
        for m in (1, 2, 3, 4):
            for lists in waterfall_lists(universe, 3, m):
                w = (1,) * m
                if any(len(lists[i]) < 2 for i in range(1, m - 1)):
                    continue
                if len(lists[-1]) < 1:
                    continue
                assert (
                    decide_waterfall_prefix(lists, w).colorable
                    == decide_waterfall(lists, w).colorable
                ), lists
                checked += 1
        assert checked > 1000


class TestConstructColoringWaterfall:
    def test_prefers_exclusive_colors(self):
        assert construct_coloring_waterfall(L({1, 2}, {2, 3}), (1, 1)) == L({1}, {2})

    def test_weighted(self):
        assert construct_coloring_waterfall(
            L({1, 2}, {2, 3, 4}, {4, 5}), (1, 2, 1)
        ) == L({1}, {2, 3}, {4})

    def test_zero_weight_vertex(self):
        assert construct_coloring_waterfall(
            L({1, 2}, {2, 3}, {3, 4}), (2, 0, 2)
        ) == L({1, 2}, set(), {3, 4})

    def test_exhausted_search_is_internal_error(self):
        with pytest.raises(InternalInvariantError):
            construct_coloring_waterfall(L({1}, {1}), (1, 1))

    def test_backtracking_rescues_greedy_dead_ends(self):
        # every colorable waterfall instance in this family must be colored,
        # whichever path the greedy takes
        universe = tuple(range(1, 5))
        for m in (2, 3):
            for lists in waterfall_lists(universe, 3, m):
                for w in weight_vectors(m, 2):
                    if decide_waterfall(lists, w).colorable:
                        c = construct_coloring_waterfall(lists, w)
                        assert validate_coloring(Instance.path(w, lists), c)


class TestConstructColoringGeneral:
    def test_non_good_route(self):
        assert construct_coloring_general(L({1}, {2}, {1}), (1, 1, 1)) == L({1}, {2}, {1})

    def test_good_lists_colored_by_greedy(self):
        # the end of the path takes its smallest color: 1 is free again there
        assert construct_coloring_general(L({1}, {1, 2}, {1, 3}), (1, 1, 1)) == L(
            {1}, {2}, {1}
        )

    def test_disjoint_singletons(self):
        assert construct_coloring_general(L({5}, {7}), (1, 1)) == L({5}, {7})

    def test_exhausted_search_is_internal_error(self):
        with pytest.raises(InternalInvariantError):
            construct_coloring_general(L({1}, {1}, {2, 3}), (1, 1, 1))


class TestGreedy:
    def test_fails_exactly_when_hall_scan_finds_a_violation(self):
        rng = random.Random(2010)
        colorable = 0
        for _ in range(20_000):
            m = rng.randint(1, 12)
            lists = tuple(
                frozenset(rng.sample(range(6), rng.randint(1, 6))) for _ in range(m)
            )
            w = tuple(rng.randint(0, 3) for _ in range(m))
            coloring = _greedy(lists, w)
            assert (coloring is None) == (_hall_scan(lists, w) is not None), (lists, w)
            if coloring is not None:
                assert validate_coloring(Instance.path(w, lists), coloring), (lists, w)
                colorable += 1
        # both outcomes are well represented
        assert 5_000 < colorable < 15_000

    def test_cost_classes_in_order(self):
        # at vertex 0: 9 is absent from L(1), 2 runs 2 vertices and stops,
        # 3 runs to the path end, 1 runs 1 vertex and stops
        lists = L({1, 2, 3, 9}, {1, 2, 3}, {2, 3}, {3, 4}, {3})
        assert [_greedy(lists, (k, 0, 0, 0, 0))[0] for k in range(1, 5)] == [
            {9},
            {9, 2},
            {9, 2, 3},
            {9, 2, 3, 1},
        ]

    def test_odd_runs_longest_first_even_runs_shortest_first(self):
        # from vertex 1 on, color 1 runs 1 vertex and color 2 runs 3
        odd = L({1, 2}, {1, 2}, {2}, {2}, {5})
        assert _greedy(odd, (1, 0, 0, 0, 0))[0] == {2}
        # from vertex 1 on, color 1 runs 4 vertices and color 2 runs 2
        even = L({1, 2}, {1, 2}, {1, 2}, {1}, {1}, {5})
        assert _greedy(even, (1, 0, 0, 0, 0, 0))[0] == {2}
