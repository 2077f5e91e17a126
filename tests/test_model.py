import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosable import (
    Certificate,
    Decision,
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    amplitude,
    brute_force,
    is_good,
    is_waterfall,
    to_waterfall,
    validate_coloring,
)
from helpers import L


small_lists = st.lists(
    st.frozensets(st.integers(0, 5), max_size=4), min_size=1, max_size=5
).map(tuple)


class TestValidateColoring:
    def test_disjoint_pair(self):
        inst = Instance.path((1, 1), L({1, 2}, {2, 3}))
        assert validate_coloring(inst, L({1}, {2}))

    def test_shared_color_on_edge(self):
        inst = Instance.path((1, 1), L({1, 2}, {2, 3}))
        assert not validate_coloring(inst, L({2}, {2}))

    def test_cycle_rainbow(self):
        inst = Instance.cycle((1, 1, 1), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        assert validate_coloring(inst, L({1}, {2}, {3}))

    def test_wrap_edge_checked(self):
        inst = Instance.cycle((1, 1, 1), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        assert not validate_coloring(inst, L({1}, {2}, {1}))

    def test_wrong_size_rejected(self):
        inst = Instance.path((2, 1), L({1, 2}, {3}))
        assert not validate_coloring(inst, L({1}, {3}))

    def test_color_outside_list_rejected(self):
        inst = Instance.path((1, 1), L({1}, {2}))
        assert not validate_coloring(inst, L({7}, {2}))

    def test_length_mismatch_raises(self):
        inst = Instance.path((1, 1), L({1}, {2}))
        with pytest.raises(InvalidInputError):
            validate_coloring(inst, L({1},))

    def test_a_pinned_cycle_checks_its_pin(self):
        # proper on the cycle is not enough: v0 must get exactly the forced set
        cycle = Instance.cycle((1, 1, 1), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        fi = FreeChoiceInstance(cycle, 1, {2})
        for c in itertools.permutations(L({1}, {2}, {3})):
            assert validate_coloring(cycle, c)
            assert validate_coloring(fi, c) == (c[1] == {2}), c
        assert not validate_coloring(fi, L({1}, {2}, {1}))  # the wrap edge
        with pytest.raises(InvalidInputError):
            validate_coloring(fi, L({1}, {2}))

    def test_every_small_coloring_matches_the_edge_list(self):
        # every coloring of paths of 1-4 and cycles of 3-5 vertices over the
        # colors {1, 2, 3} with weights 0-1, against a walk over the edges
        # written out: consecutive pairs, and the last and first on a cycle;
        # odd vertices lack color 3, so the list test is walked too
        entries = [frozenset(), *(frozenset({x}) for x in (1, 2, 3))]
        shapes = [(Instance.path, n, False) for n in range(1, 5)]
        shapes += [(Instance.cycle, n, True) for n in range(3, 6)]
        checked = 0
        for make, n, wrap in shapes:
            lists = [{1, 2, 3} if v % 2 == 0 else {1, 2} for v in range(n)]
            edges = [(v, v + 1) for v in range(n - 1)] + [(n - 1, 0)] * wrap
            for weights in itertools.product((0, 1), repeat=n):
                inst = make(weights, lists)
                for c in itertools.product(entries, repeat=n):
                    fits = all(len(c[v]) == weights[v] and c[v] <= lists[v] for v in range(n))
                    expected = fits and not any(c[u] & c[v] for u, v in edges)
                    assert validate_coloring(inst, c) == expected, (n, wrap, weights, c)
                    checked += 1
        assert checked == 2 * 4 + 4 * 16 + 8 * 64 + 16 * 256 + 8 * 64 + 16 * 256 + 32 * 1024

    def test_a_clash_across_the_wrap_edge_alone(self):
        lists, coloring = L({1, 2}, {2, 3}, {1, 3}), L({1}, {2}, {1})
        assert validate_coloring(Instance.path((1, 1, 1), lists), coloring)
        assert not validate_coloring(Instance.cycle((1, 1, 1), lists), coloring)

    @settings(max_examples=150, deadline=None)
    @given(small_lists, st.randoms(use_true_random=False))
    def test_accepted_coloring_implies_oracle_colorable(self, lists, rnd):
        weights = tuple(rnd.randint(0, 2) for _ in lists)
        candidate = tuple(
            frozenset(rnd.sample(sorted(lst), min(w, len(lst))))
            for lst, w in zip(lists, weights)
        )
        inst = Instance.path(weights, lists)
        if validate_coloring(inst, candidate):
            assert brute_force(inst).colorable


class TestAmplitude:
    def test_full_union(self):
        assert amplitude(L({1}, {1, 2}, {3}), 0, 2) == {1, 2, 3}

    def test_single_vertex(self):
        assert amplitude(L({1}, {1, 2}, {3}), 1, 1) == {1, 2}

    def test_overlapping_lists(self):
        assert amplitude(L({1, 2}, {2, 3}, {3, 4}), 0, 2) == {1, 2, 3, 4}

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            amplitude(L({1}, {2}), 0, 2)
        with pytest.raises(InvalidInputError):
            amplitude(L({1}, {2}), -1, 1)

    @settings(max_examples=100, deadline=None)
    @given(small_lists, st.data())
    def test_monotone_in_interval(self, lists, data):
        m = len(lists)
        i2 = data.draw(st.integers(0, m - 1))
        j2 = data.draw(st.integers(i2, m - 1))
        i = data.draw(st.integers(0, i2))
        j = data.draw(st.integers(j2, m - 1))
        assert amplitude(lists, i2, j2) <= amplitude(lists, i, j)


class TestIsGood:
    def test_interior_bound_met(self):
        assert is_good(L({1}, {1, 2}, {1}), (1, 1, 1))

    def test_interior_bound_violated(self):
        assert not is_good(L({1, 2, 3}, {1}, {1, 2, 3}), (1, 1, 1))

    def test_endpoints_unconstrained(self):
        # interior lists of size 9 support weight 4 everywhere, endpoints of size 4 do not matter
        lists = [set(range(4))] + [set(range(9)) for _ in range(7)] + [set(range(4))]
        assert is_good(lists, (4,) * 9)

    def test_short_paths_vacuously_good(self):
        assert is_good(L(set()), (3,))
        assert is_good(L(set(), set()), (3, 3))

    def test_checked_as_a_path(self):
        # the same refusals, in the same words, as Instance.path
        for weights, lists in (((), ()), ((1, 1), L({1})), ((1.0,), L({1}))):
            with pytest.raises(InvalidInputError) as model:
                Instance.path(weights, lists)
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(model.value))}$"):
                is_good(lists, weights)


class TestIsWaterfall:
    def test_consecutive_overlaps(self):
        assert is_waterfall(L({1, 2}, {2, 3}, {3, 4}))

    def test_distant_reuse(self):
        assert not is_waterfall(L({1}, {2}, {1}))

    def test_three_consecutive(self):
        assert not is_waterfall(L({1}, {1}, {1}))

    def test_matches_definition_exhaustively(self):
        # the definition: no color sits on two lists at distance two or more
        def by_definition(lists):
            return not any(
                lists[i] & lists[j]
                for i in range(len(lists))
                for j in range(i + 2, len(lists))
            )

        subsets = [
            frozenset(colors)
            for size in range(5)
            for colors in itertools.combinations((1, 2, 3, 4), size)
        ]
        checked = 0
        for m in range(1, 5):
            for lists in itertools.product(subsets, repeat=m):
                assert is_waterfall(lists) == by_definition(lists), lists
                checked += 1
        assert checked == 69_904

    def test_long_paths(self):
        m = 10**5
        transformed, _ = to_waterfall([[0, 1]] * m, [0] * m)
        assert is_waterfall(transformed)
        # distinct singletons, with color 0 back at the far end
        assert not is_waterfall([[v] for v in range(m - 1)] + [[0]])

    @settings(max_examples=150, deadline=None)
    @given(small_lists)
    def test_amplitude_formula_for_waterfall(self, lists):
        # for waterfall lists inclusion-exclusion collapses to pairwise overlaps
        if not is_waterfall(lists):
            return
        m = len(lists)
        for i in range(m):
            for j in range(i, m):
                expected = sum(len(lists[k]) for k in range(i, j + 1)) - sum(
                    len(lists[k] & lists[k + 1]) for k in range(i, j)
                )
                assert len(amplitude(lists, i, j)) == expected


class TestInstance:
    def test_topology_must_be_a_member(self):
        # a bare string would be taken for a path without its wrap edge
        for n in (3, 2):
            with pytest.raises(InvalidInputError, match="topology"):
                Instance("cycle", (1,) * n, ([1, 2],) * n)

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(InvalidInputError):
            Instance.cycle((1, 1), L({1}, {2}))

    def test_path_needs_a_vertex(self):
        with pytest.raises(InvalidInputError):
            Instance.path((), L())

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Instance.path((1, 1, 1), L({1}, {2}))

    def test_negative_color_rejected(self):
        with pytest.raises(InvalidInputError):
            Instance.path((1,), [[-3]])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            Instance.path([-1], L({1}))

    def test_lists_deduplicated(self):
        inst = Instance.path((1,), [[2, 2, 2]])
        assert inst.lists == (frozenset({2}),)



class TestDecision:
    def test_witness_must_match_verdict(self):
        with pytest.raises(InvalidInputError):
            Decision(True)
        with pytest.raises(InvalidInputError):
            Decision(False, coloring=L({1}))
        with pytest.raises(InvalidInputError):
            Decision(True, coloring=L({1}), certificate=Certificate(0, 0, 0, 1))
