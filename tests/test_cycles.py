import random
import re

import pytest

from choosable import (
    Certificate,
    ChoiceParameters,
    FreeChoiceInstance,
    Instance,
    InvalidInputError,
    PreconditionError,
    Rational,
    brute_force_forced,
    counterexample_list,
    cycle_to_path,
    endpoint_threshold,
    even_ceil,
    fchr,
    is_free_choosable,
    solve_free_choice,
    validate_coloring,
)
from helpers import L, bench_module


class TestEvenCeil:
    def test_even_integer_fixed(self):
        assert even_ceil(8) == 8

    def test_fraction_rounds_to_next_even(self):
        assert even_ceil(Rational(8, 3)) == 4

    def test_zero(self):
        assert even_ceil(0) == 0

    def test_odd_integer_rounds_up(self):
        assert even_ceil(7) == 8

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            even_ceil(-1)

    def test_closed_form_for_ratios(self):
        for b in range(1, 12):
            for e in range(1, 12):
                assert even_ceil(Rational(2 * b, e)) == 2 * ((b + e - 1) // e)


class TestEndpointThreshold:
    def test_nine_four_kicks_in_at_eight(self):
        p = ChoiceParameters(9, 4)
        assert all(endpoint_threshold(p, n) for n in range(8, 40))
        assert not any(endpoint_threshold(p, n) for n in range(0, 8))

    def test_eleven_four_kicks_in_at_four(self):
        p = ChoiceParameters(11, 4)
        assert all(endpoint_threshold(p, n) for n in range(4, 40))
        assert not any(endpoint_threshold(p, n) for n in range(0, 4))

    def test_strictly_below_threshold(self):
        assert not endpoint_threshold(ChoiceParameters(9, 4), 7)

    def test_nonpositive_e_rejected(self):
        with pytest.raises(PreconditionError):
            endpoint_threshold(ChoiceParameters(8, 4), 10)
        with pytest.raises(PreconditionError):
            endpoint_threshold(ChoiceParameters(5, 3), 10)

    def test_equivalent_integer_form(self):
        for b in range(1, 9):
            for e in range(1, 9):
                p = ChoiceParameters(2 * b + e, b)
                for n in range(1, 41):
                    assert endpoint_threshold(p, n) == ((n // 2) * e >= b)


class TestFchr:
    def test_small_values(self):
        expected = [
            Rational(3),
            Rational(5, 2),
            Rational(5, 2),
            Rational(7, 3),
            Rational(7, 3),
            Rational(9, 4),
            Rational(9, 4),
            Rational(11, 5),
        ]
        assert [fchr(n) for n in range(3, 11)] == expected

    def test_short_cycles_rejected(self):
        with pytest.raises(InvalidInputError):
            fchr(2)

    def test_non_increasing_and_paired(self):
        for n in range(3, 41):
            assert fchr(n) >= fchr(n + 1)
        for m in range(2, 20):
            assert fchr(2 * m) == fchr(2 * m + 1)


class TestIsFreeChoosable:
    def test_reference_triples(self):
        assert is_free_choosable(5, 2, 4)
        assert is_free_choosable(9, 4, 8)
        assert not is_free_choosable(7, 3, 4)

    def test_matches_exact_ratio_comparison(self):
        for b in range(1, 5):
            for a in range(b, 13):
                for n in range(3, 13):
                    expected = Rational(a, b) >= fchr(n)
                    assert is_free_choosable(a, b, n) == expected
                    assert expected == ((n // 2) * (a - 2 * b) >= b)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            is_free_choosable(0, 1, 4)
        with pytest.raises(InvalidInputError):
            is_free_choosable(3, 1, 2)


class TestFreeChoiceInstance:
    def test_forced_size_must_match_weight(self):
        cyc = Instance.cycle((2, 2, 2), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        with pytest.raises(InvalidInputError):
            FreeChoiceInstance(cyc, 0, frozenset({1}))

    def test_forced_must_come_from_list(self):
        cyc = Instance.cycle((1, 1, 1), L({1, 2}, {1, 2}, {1, 2}))
        with pytest.raises(InvalidInputError):
            FreeChoiceInstance(cyc, 0, frozenset({9}))

    def test_requires_cycle(self):
        inst = Instance.path((1, 1, 1), L({1}, {2}, {3}))
        with pytest.raises(InvalidInputError):
            FreeChoiceInstance(inst, 0, frozenset({1}))

    def test_v0_in_range(self):
        cyc = Instance.cycle((1, 1, 1), L({1}, {2}, {3}))
        with pytest.raises(InvalidInputError):
            FreeChoiceInstance(cyc, 3, frozenset({1}))

    @pytest.mark.parametrize("v0", [1.0, "1", True, None, -1])
    def test_v0_must_be_a_plain_integer(self, v0):
        cyc = Instance.cycle((1, 1, 1), L({1, 2}, {1, 2}, {1, 2, 3}))
        message = f"v0 must be a non-negative integer, got {v0!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            FreeChoiceInstance(cyc, v0, frozenset({1}))


class TestCycleToPath:
    def test_triangle(self):
        fi = FreeChoiceInstance(
            Instance.cycle((1, 1, 1), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3})),
            0,
            frozenset({1}),
        )
        path = cycle_to_path(fi)
        assert path.lists == L({1}, {1, 2, 3}, {1, 2, 3}, {1})
        assert path.weights == (1, 1, 1, 1)

    def test_endpoint_lists_are_forced_set(self):
        lists = L({1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5})
        fi = FreeChoiceInstance(Instance.cycle((2,) * 4, lists), 0, frozenset({1, 2}))
        path = cycle_to_path(fi)
        assert path.lists[0] == path.lists[-1] == {1, 2}

    def test_rotation_and_sizes(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(3, 7)
            b = rng.randint(1, 2)
            lists = tuple(
                frozenset(rng.sample(range(10), rng.randint(2 * b, 2 * b + 2)))
                for _ in range(n)
            )
            v0 = rng.randrange(n)
            forced = frozenset(rng.sample(sorted(lists[v0]), b))
            fi = FreeChoiceInstance(Instance.cycle((b,) * n, lists), v0, forced)
            path = cycle_to_path(fi)
            assert path.n_vertices == n + 1
            assert len(path.lists[0]) == len(path.lists[-1]) == b
            for i in range(1, n):
                assert path.lists[i] == lists[(v0 + i) % n]


class TestCutAgainstTheChecker:
    """The cut and its answers, read by the benchmark's checker, which shares no code."""

    def test_every_pinned_vertex(self):
        check = bench_module("check")
        rng = random.Random(27)
        verdicts = set()
        for _ in range(120):
            n = rng.randint(3, 7)
            weights = [rng.randint(0, 2) for _ in range(n)]
            lists = [sorted(rng.sample(range(6), rng.randint(w, w + 3))) for w in weights]
            cycle = Instance.cycle(weights, lists)
            for v0 in range(n):  # v0 = 0 and v0 = n - 1 included
                forced = sorted(rng.sample(lists[v0], weights[v0]))
                fi = FreeChoiceInstance(cycle, v0, forced)
                doc = {"graph": "cycle", "weights": weights, "lists": lists}
                doc["forced"] = {"vertex": v0, "colors": forced}
                cut_lists, cut_weights = check.cut_path(doc)
                assert cycle_to_path(fi) == Instance.path(cut_weights, cut_lists)
                d = solve_free_choice(fi)
                verdicts.add(d.colorable)
                if d.colorable:
                    coloring = [sorted(colors) for colors in d.coloring]
                    assert check.check_coloring(doc, coloring) == []
                else:
                    c = d.certificate
                    cert = {"i": c.i, "j": c.j, "amplitude": c.amplitude_size, "demand": c.demand}
                    assert check.check_certificate(doc, cert) == []
        assert verdicts == {True, False}


class TestSolveFreeChoice:
    def test_ratio_at_threshold_always_extends(self):
        rng = random.Random(17)
        for _ in range(200):
            lists = tuple(
                frozenset(rng.sample(range(8), 5)) for _ in range(4)
            )
            v0 = rng.randrange(4)
            forced = frozenset(rng.sample(sorted(lists[v0]), 2))
            fi = FreeChoiceInstance(Instance.cycle((2,) * 4, lists), v0, forced)
            d = solve_free_choice(fi)
            assert d.colorable
            assert validate_coloring(fi, d.coloring)

    def test_counterexample_yields_path_certificate(self):
        d = solve_free_choice(counterexample_list(4, 2, 4))
        assert not d.colorable
        assert d.certificate == Certificate(0, 4, 8, 10)

    def test_triangle_single_color(self):
        fi = FreeChoiceInstance(
            Instance.cycle((1, 1, 1), L({1, 2, 3}, {1, 2, 3}, {1, 2, 3})),
            0,
            frozenset({1}),
        )
        d = solve_free_choice(fi)
        assert d.colorable and d.coloring == L({1}, {2}, {3})

    def test_agrees_with_forced_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(3, 6)
            b = rng.randint(1, 2)
            u = rng.randint(max(2, 2 * b), 7)
            lists = tuple(
                frozenset(rng.sample(range(u), rng.randint(b, min(u, 2 * b + 1))))
                for _ in range(n)
            )
            v0 = rng.randrange(n)
            forced = frozenset(rng.sample(sorted(lists[v0]), b))
            fi = FreeChoiceInstance(Instance.cycle((b,) * n, lists), v0, forced)
            d = solve_free_choice(fi)
            assert d.colorable == brute_force_forced(fi).colorable
            if d.colorable:
                assert validate_coloring(fi, d.coloring)


class TestCounterexampleList:
    def test_four_two_four(self):
        fi = counterexample_list(4, 2, 4)
        assert fi.cycle.lists == L(
            {1, 2, 3, 4}, {1, 2, 3, 4}, {3, 4, 5, 6}, {1, 2, 5, 6}
        )
        assert fi.v0 == 0 and fi.forced == {1, 2}
        assert not brute_force_forced(fi).colorable

    def test_nine_four_six(self):
        fi = counterexample_list(9, 4, 6)
        assert fi.cycle.lists == L(
            set(range(1, 10)),
            set(range(1, 10)),
            set(range(5, 14)),
            set(range(10, 19)),
            set(range(14, 23)),
            set(range(1, 5)) | set(range(19, 24)),
        )
        assert fi.forced == frozenset(range(1, 5))
        assert all(len(entry) == 9 for entry in fi.cycle.lists)
        assert not brute_force_forced(fi).colorable

    def test_boundary_ratio_rejected(self):
        with pytest.raises(PreconditionError):
            counterexample_list(5, 2, 4)

    def test_odd_length_refuted(self):
        fi = counterexample_list(4, 2, 5)
        assert fi.cycle.lists == L(*[set(range(1, 5))] * 5)
        assert fi.v0 == 0 and fi.forced == {1, 2}
        assert not solve_free_choice(fi).colorable
        assert not brute_force_forced(fi).colorable

    def test_too_short_rejected(self):
        with pytest.raises(PreconditionError):
            counterexample_list(4, 2, 2)

    def test_list_sizes_across_parameter_sweep(self):
        for n in (4, 6, 8):
            for b in range(1, 4):
                for a in range(b, 3 * b + 2):
                    if (n // 2) * (a - 2 * b) < b:
                        fi = counterexample_list(a, b, n)
                        assert all(len(entry) == a for entry in fi.cycle.lists)

    def test_exists_exactly_below_the_threshold(self):
        # the paper's threshold both ways: a witness for every "false"
        for n in range(3, 10):
            for b in range(1, 4):
                for a in range(b, 3 * b + 2):
                    if is_free_choosable(a, b, n):
                        with pytest.raises(PreconditionError):
                            counterexample_list(a, b, n)
                    else:
                        fi = counterexample_list(a, b, n)
                        assert not solve_free_choice(fi).colorable, (a, b, n)
