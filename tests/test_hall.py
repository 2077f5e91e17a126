import itertools
import random
import sys

import pytest

from choosable import (
    Certificate,
    FreeChoiceInstance,
    Instance,
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
    solve_free_choice,
    validate_coloring,
)
from choosable.hall import _greedy
from helpers import (
    L,
    _hall_scan,
    planted_good_path,
    reference_greedy,
    waterfall_lists,
    weight_vectors,
)


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
        # the violated interval that ends first: vertices 0..1 already
        # fail (alpha 1 < demand 2)
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
        def hall_sum(lists, i, j):
            return sum(alpha_path(lists, i, j, k) for k in amplitude(lists, i, j))

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
            assert c.amplitude_size == hall_sum(lists, c.i, c.j)
            assert c.demand == sum(w[c.i : c.j + 1])
            assert c.amplitude_size < c.demand
            # the smallest right end of any violated subpath, and the
            # smallest left end violated there
            violated = {
                (i, j)
                for j in range(m)
                for i in range(j + 1)
                if hall_sum(lists, i, j) < sum(w[i : j + 1])
            }
            assert min((j, i) for i, j in violated) == (c.j, c.i)
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

    def test_first_violation_need_not_be_a_prefix(self):
        # every prefix reaches its demand; vertices 1..2 share one color
        d = decide_waterfall(L({1, 2}, {3}, {3}), (1, 1, 1))
        assert d.certificate == Certificate(1, 2, 1, 2)

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
        checked = refused = heavy = 0
        for m in (1, 2, 3, 4):
            for lists in waterfall_lists(universe, 3, m):
                for w in itertools.product((1, 2), repeat=m):
                    if any(len(lists[i]) < w[i] + w[i + 1] for i in range(1, m - 1)):
                        continue
                    if len(lists[-1]) < w[-1]:
                        continue
                    case = (lists, w)
                    d = decide_waterfall_prefix(lists, w)
                    assert d.colorable == decide_waterfall(lists, w).colorable, case
                    # the theorem, checked against ground truth rather than
                    # against a decider that shares its code: the verdict is
                    # the oracle's, and the certificate is a prefix
                    assert d.colorable == brute_force(Instance.path(w, lists)).colorable, case
                    if not d.colorable:
                        assert d.certificate.i == 0, (case, d.certificate)
                        refused += 1
                        heavy += 2 in w
                    checked += 1
        assert checked > 1000 and refused > 100 and heavy > 100


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

    def test_uncolorable_path_is_precondition_error(self):
        # bad input, not a bug: the message names decide_waterfall's interval
        with pytest.raises(PreconditionError, match=r"vertices 0\.\.1 demand 2 colors"):
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

    def test_uncolorable_path_is_precondition_error(self):
        with pytest.raises(PreconditionError, match=r"Hall sum is 1"):
            construct_coloring_general(L({1}, {1}, {2, 3}), (1, 1, 1))


def late_violation(m):
    """test_cli's late violation: colorable up to its last two vertices,
    which share one color."""
    rng = random.Random(5)
    lists = [frozenset(rng.sample(range(12), 3)) for _ in range(m - 2)]
    return tuple(lists) + (frozenset({100}),) * 2, (1,) * m


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
            found = _greedy(lists, w)
            refused = isinstance(found, Certificate)
            assert refused == (_hall_scan(lists, w) is not None), (lists, w)
            if not refused:
                assert validate_coloring(Instance.path(w, lists), found), (lists, w)
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

    def test_same_answer_as_reference(self):
        # the coloring or the certificate, not just the verdict
        rng = random.Random(2011)
        colorable = 0
        for _ in range(6_000):
            m = rng.randint(1, 60)
            k = rng.randint(1, 14)
            top = rng.randint(0, 3)
            lists = tuple(
                frozenset(rng.sample(range(k), rng.randint(0, k))) for _ in range(m)
            )
            w = tuple(rng.randint(0, top) for _ in range(m))
            found = _greedy(lists, w)
            assert found == reference_greedy(lists, w), (lists, w)
            if not isinstance(found, Certificate):
                # the deciders return the greedy's coloring unchecked
                assert validate_coloring(Instance.path(w, lists), found), (lists, w)
                colorable += 1
        assert 1_500 < colorable < 4_500
        for seed, weight, size in ((0, 2, 6), (1, 1, 3), (2, 3, 7), (3, 2, 4)):
            inst = Instance.path(*planted_good_path(seed, 900, weight, size))
            found = _greedy(inst.lists, inst.weights)
            assert found == reference_greedy(inst.lists, inst.weights), seed
            assert validate_coloring(inst, found), seed
        # at vertex 1 the available colors absent from L(2) are 8 and 9,
        # fewer than, as many as or more than w(1); from vertex 2 on, color
        # 2 runs 2 vertices and stops, color 1 runs 1 and stops
        lists = L({5}, {1, 2, 5, 8, 9}, {1, 2}, {2}, {7})
        expected = {1: {8}, 2: {8, 9}, 3: {8, 9, 2}, 4: {8, 9, 2, 1}}
        for k, colors in expected.items():
            w = (1, k, 0, 0, 0)
            found = _greedy(lists, w)
            assert found == reference_greedy(lists, w)
            assert found[1] == colors

    def test_early_no_reads_only_the_prefix(self):
        # vertices 0 and 1 share the list {0, 1} and demand three colors,
        # so the path is refused at vertex 1 whatever follows.  A slice
        # counts as the items it copies; iterating over or concatenating
        # the whole path, as padding it with an empty list would, fails.
        class CountedReads(tuple):
            reads = 0

            def __getitem__(self, key):
                got = super().__getitem__(key)
                self.reads += len(got) if isinstance(key, slice) else 1
                return got

            def __iter__(self):
                raise AssertionError("the greedy iterated over the whole path")

            def __add__(self, other):
                raise AssertionError("the greedy copied the whole path")

        rng = random.Random(17)
        m = 100_000
        lists = (frozenset({0, 1}),) * 2 + tuple(
            frozenset(rng.sample(range(2, 14), 3)) for _ in range(m - 2)
        )
        for head in ((1, 2), (2, 1)):
            w = head + (1,) * (m - 2)
            counted = CountedReads(lists)
            found = _greedy(counted, w)
            assert found == reference_greedy(lists, w) == Certificate(0, 1, 2, 3)
            assert counted.reads <= 10, (head, counted.reads)

    @pytest.mark.parametrize(
        "case",
        [
            # every vertex ranks, and every run reaches the path end
            lambda m: ((frozenset(range(6)),) * m, (2,) * m),
            # colors 3, 4 and 5 are ranked where their runs of two start;
            # each such run ends before the next one starts, so the run the
            # greedy remembers for them has always ended by then
            lambda m: (
                tuple(frozenset(range(6 if v % 3 < 2 else 3)) for v in range(m)),
                (2,) * m,
            ),
            late_violation,
        ],
        ids=["runs_to_the_end", "runs_restart", "late_violation"],
    )
    def test_long_runs_match_reference(self, case):
        # on the first two, a greedy that scanned a run again at every vertex
        # it ranks at would take quadratic time: colors 0, 1 and 2 run to
        # the path end
        lists, w = case(100_000)
        assert _greedy(lists, w) == reference_greedy(lists, w)

    def test_kept_sets_are_sized_like_fresh_ones(self):
        # on these paths every color set the greedy keeps is sized like one
        # built from its own colors; L(v).difference(taken, nxt) would copy
        # L(v)'s hash table into each returned set, and the pinned 900-cycle
        # would keep hundreds of such oversized sets
        def resized(coloring):
            return [
                v
                for v, colors in enumerate(coloring)
                if sys.getsizeof(colors) != sys.getsizeof(frozenset(sorted(colors)))
            ]

        rng = random.Random(900)
        lists = [rng.sample(range(10), 5) for _ in range(900)]
        v0 = rng.randrange(900)
        fi = FreeChoiceInstance(
            Instance.cycle((2,) * 900, lists), v0, frozenset(lists[v0][:2])
        )
        decision = solve_free_choice(fi)
        assert decision.colorable
        assert resized(decision.coloring) == []
        for seed in range(4):
            w, lists = planted_good_path(seed, 900)
            decision = hall_check_path(lists, w)
            assert decision.colorable, seed
            assert resized(decision.coloring) == [], seed
