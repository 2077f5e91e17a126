import itertools
import random
import re
import tracemalloc

import pytest

from choosable import (
    Instance,
    InvalidInputError,
    NotGoodError,
    TransformReport,
    amplitude,
    brute_force,
    decide_waterfall,
    is_good,
    is_waterfall,
    pull_back_coloring,
    to_waterfall,
    validate_coloring,
)
from helpers import (
    L,
    planted_good_path,
    reference_to_waterfall,
    subsets_up_to,
    weight_vectors,
)


def maximal_runs(lists):
    """(color, first, last) of every maximal run of consecutive vertices."""
    found, open_runs = [], {}
    for v, colors in enumerate(list(lists) + [frozenset()]):
        for x in list(open_runs):
            if x not in colors:
                found.append((x, open_runs.pop(x), v - 1))
        for x in colors:
            open_runs.setdefault(x, v)
    return found


class TestNormalizeRuns:
    # stage 1 of to_waterfall; the weights keep each list good

    def test_detached_reoccurrence_gets_fresh_color(self):
        out, report = to_waterfall(L({1}, {2}, {1}), (1, 0, 1))
        assert out == L({1}, {2}, {3})
        assert report.run_renames == ((1, 3, 2, 2),)
        assert report.fresh_colors == {3}

    def test_consecutive_runs_untouched(self):
        # one long run: stage 3 shortens it, stage 1 has nothing to rename
        out, report = to_waterfall(L({1}, {1}, {1}), (0, 0, 0))
        assert out == L({1}, {1}, {2})
        assert report.run_renames == ()
        assert report.replacements == ((1, 2, 2, 2),)

    def test_run_of_two_then_gap(self):
        out, report = to_waterfall(L({1}, {1}, {2}, {1}), (1, 0, 1, 0))
        assert out == L({1}, {1}, {2}, {3})
        assert report.run_renames == ((1, 3, 3, 3),)
        assert report.relabel_map == () and report.replacements == ()

    def test_similarity_on_examples(self):
        for lists, w in [(L({1}, {2}, {1}), (1, 0, 1)), (L({1}, {1}, {2}, {1}), (1, 0, 1, 0))]:
            out, _ = to_waterfall(lists, w)
            assert (
                brute_force(Instance.path(w, lists)).colorable
                == brute_force(Instance.path(w, out)).colorable
            )

    def test_every_run_consecutive_afterwards(self):
        rng = random.Random(7)
        for _ in range(300):
            m = rng.randint(1, 6)
            lists = tuple(
                frozenset(rng.sample(range(5), rng.randint(0, 3))) for _ in range(m)
            )
            out, report = to_waterfall(lists, (0,) * m)
            colors = [x for x, _, _ in maximal_runs(out)]
            assert len(colors) == len(set(colors))
            assert [len(s) for s in out] == [len(s) for s in lists]
            assert not report.fresh_colors & amplitude(lists, 0, m - 1)


class TestToWaterfall:
    def test_three_vertex_span_broken(self):
        out, report = to_waterfall(L({1}, {1, 2}, {1, 3}), (1, 1, 1))
        assert out == L({1}, {1, 2}, {3, 4})
        assert report.replacements == ((1, 4, 2, 2),)
        assert report.fresh_colors == {4}
        assert report.iterations == 1

    def test_already_waterfall_is_fixed_point(self):
        lists = L({1, 2}, {2, 3}, {3, 4})
        out, report = to_waterfall(lists, (1, 1, 1))
        assert out == lists
        assert report == TransformReport()

    @pytest.mark.parametrize(
        "lists",
        [L({7, 2}, {2, 5}, {5, 0, 9}, {3}), L({4, 1}), L(set(), set(), {1}, set())],
        ids=["shuffled-labels", "one-vertex", "empty-lists"],
    )
    def test_stages_give_waterfall_form_its_own_colors(self, lists):
        # one placement loop for every list: stage 2 keeps each span's own
        # color, even where span order disagrees with label order, and
        # stage 3 places each once
        from choosable.waterfall import _runs, _stages

        out, report = _stages(_runs(lists), len(lists))
        assert [sorted(labels) for labels in out] == [sorted(colors) for colors in lists]
        assert report == TransformReport()
        assert to_waterfall(lists, (0,) * len(lists)) == (lists, report)

    def test_span_from_first_vertex(self):
        out, report = to_waterfall(L({1, 2}, {1, 2}, {2, 3}), (1, 1, 1))
        assert out == L({1, 2}, {1, 2}, {4, 3})
        assert report.replacements == ((2, 4, 2, 2),)

    def test_rejects_non_good_lists(self):
        with pytest.raises(NotGoodError):
            to_waterfall(L({1, 2, 3}, {1}, {1, 2, 3}), (1, 1, 1))

    def test_relabel_when_span_order_disagrees(self):
        # the fresh run color lands before an original color in span order,
        # so the stage 2 permutation swaps their labels
        lists = L({1}, {1, 2}, {1, 3}, {2, 3}, {9})
        out, report = to_waterfall(lists, (1,) * 5)
        assert out == L({1}, {1, 2}, {3, 11}, {3, 9}, {10})
        assert report.run_renames == ((2, 10, 3, 3),)
        assert report.relabel_map == ((10, 9), (9, 10))
        assert report.fresh_colors == {10, 11}

    def test_fresh_colors_avoid_input_amplitude(self):
        lists = L({1}, {1, 2}, {1, 3}, {2, 3}, {9})
        _, report = to_waterfall(lists, (1,) * 5)
        assert not report.fresh_colors & amplitude(lists, 0, 4)

    def test_idempotent(self):
        for lists in [
            L({1}, {1, 2}, {1, 3}),
            L({1, 2}, {1, 2}, {2, 3}),
            L({1}, {1, 2}, {1, 3}, {2, 3}, {9}),
        ]:
            w = (1,) * len(lists)
            out, _ = to_waterfall(lists, w)
            again, report = to_waterfall(out, w)
            assert again == out
            assert report == TransformReport()

    def test_iterations_bounded_by_span_measure(self):
        rng = random.Random(40)
        for _ in range(300):
            m = rng.randint(1, 6)
            lists = tuple(
                frozenset(rng.sample(range(6), rng.randint(0, 4))) for _ in range(m)
            )
            w = tuple(rng.randint(0, 2) for _ in range(m))
            if not is_good(lists, w):
                continue
            # stage 1 turns every maximal run into one color's span
            measure = sum(max(0, last - first - 1) for _, first, last in maximal_runs(lists))
            _, report = to_waterfall(lists, w)
            assert report.iterations <= measure

    def test_fresh_labels_are_issued_in_ascending_order(self):
        # the command writes fresh_colors as the new labels of the events,
        # stage 1's then stage 3's, unsorted: one counter issues them all
        cases = []
        for seed in range(3):
            for shape in ((), (1, 3, 5)):
                w, lists = planted_good_path(seed, 300, *shape)
                cases.append((lists, w))
        rng = random.Random(93)
        while len(cases) < 500:
            # the tiny lists of C3: four vertices over five colors
            lists = tuple(frozenset(rng.sample(range(1, 6), rng.randint(0, 4))) for _ in range(4))
            w = tuple(rng.randint(0, 2) for _ in range(4))
            if is_good(lists, w):
                cases.append((lists, w))
        issued = 0
        for lists, w in cases:
            _, report = to_waterfall(lists, w)
            fresh = [new for _, new, _, _ in report.run_renames + report.replacements]
            assert all(a < b for a, b in zip(fresh, fresh[1:])), lists
            assert fresh == sorted(report.fresh_colors)
            issued += len(fresh) > 1
        assert issued > 100

    def test_plan_drops_each_stage_when_done(self):
        # each stage's temporaries go as soon as the next stage starts, and
        # each vertex's list becomes its frozenset in place, so the peak is
        # near what the result itself holds (1.50 times it when every
        # temporary lived to the end)
        from choosable.waterfall import _plan

        w, lists = planted_good_path(21, 900)
        L = Instance.path(w, lists).lists
        tracemalloc.start()
        try:
            result = _plan(L)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == reference_to_waterfall(L, w)
        assert peak <= 1.1 * live


def _exhaustive_good_family():
    """All good lists on up to 4 vertices over 4 colors with sizes <= 3, w <= 2."""
    subsets = [
        frozenset(c)
        for k in range(4)
        for c in itertools.combinations(range(1, 5), k)
    ]
    for m in range(1, 5):
        for lists in itertools.product(subsets, repeat=m):
            for w in weight_vectors(m, 2):
                if is_good(lists, w):
                    yield lists, w


class TestAgainstReference:
    # the plan places every label as it issues it; the reference plans the
    # report and then replays it event by event

    def test_every_list_over_four_colors(self):
        # the transform reads the weights only for the good bound, which
        # zero weights always meet, so these lists cover every good list
        # over four colors on 1-4 vertices, whatever its weights
        checked = 0
        for m in range(1, 5):
            w = (0,) * m
            for lists in itertools.product(subsets_up_to(range(1, 5), 4), repeat=m):
                assert to_waterfall(lists, w) == reference_to_waterfall(lists, w), lists
                checked += 1
        assert checked == 16 + 16**2 + 16**3 + 16**4

    def test_weights_only_gate_the_good_bound(self):
        lists = L({1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {2, 3})
        expected = reference_to_waterfall(lists, (0,) * 4)
        for w in weight_vectors(4, 2):
            if is_good(lists, w):
                assert to_waterfall(lists, w) == expected
            else:
                with pytest.raises(NotGoodError):
                    to_waterfall(lists, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_paths(self, seed):
        # 6 of 12 colors at weight 2, as in the benchmark's 900-vertex path,
        # and 3 of 5 colors at weight 1, whose longer runs nest stage 3 chains
        for shape in ((), (1, 3, 5)):
            w, lists = planted_good_path(seed, 900, *shape)
            assert to_waterfall(lists, w) == reference_to_waterfall(lists, w)


class TestSimilarity:
    def test_small_exhaustive(self):
        # desk-scale slice of the similarity claim; the acceptance suite runs
        # the larger family
        subsets = [
            frozenset(c)
            for k in range(4)
            for c in itertools.combinations(range(1, 4), k)
        ]
        checked = 0
        for m in (2, 3):
            for lists in itertools.product(subsets, repeat=m):
                for w in weight_vectors(m, 2):
                    if not is_good(lists, w):
                        continue
                    out, report = to_waterfall(lists, w)
                    assert is_waterfall(out)
                    assert [len(s) for s in out] == [len(s) for s in lists]
                    a = brute_force(Instance.path(w, lists))
                    b = brute_force(Instance.path(w, out))
                    assert a.colorable == b.colorable, (lists, w)
                    if b.colorable:
                        back = pull_back_coloring(report, b.coloring, lists, w)
                        assert validate_coloring(Instance.path(w, lists), back)
                    checked += 1
        assert checked > 1000

    def test_sampled_wide_family(self):
        # sampled slice of the wider family: 5 vertices, 6 colors, sizes <= 4
        rng = random.Random(20260809)
        checked = 0
        while checked < 1500:
            m = rng.randint(1, 5)
            lists = tuple(
                frozenset(rng.sample(range(6), rng.randint(0, 4))) for _ in range(m)
            )
            w = tuple(rng.randint(0, 2) for _ in range(m))
            if not is_good(lists, w):
                continue
            out, report = to_waterfall(lists, w)
            assert is_waterfall(out)
            assert [len(s) for s in out] == [len(s) for s in lists]
            a = brute_force(Instance.path(w, lists))
            b = brute_force(Instance.path(w, out))
            assert a.colorable == b.colorable, (lists, w)
            if b.colorable:
                back = pull_back_coloring(report, b.coloring, lists, w)
                assert validate_coloring(Instance.path(w, lists), back)
            checked += 1


class TestPullBack:
    def test_zero_steps_is_identity(self):
        lists = L({1, 2}, {2, 3})
        coloring = L({1}, {2})
        assert pull_back_coloring(TransformReport(), coloring, lists, (1, 1)) == coloring

    def test_case_one_plain_rename(self):
        lists = L({1}, {1, 2}, {1, 3})
        _, report = to_waterfall(lists, (1, 1, 1))
        back = pull_back_coloring(report, L({1}, {2}, {4}), lists, (1, 1, 1))
        assert back == L({1}, {2}, {1})

    def test_case_two_three_way_exchange(self):
        # x sits at vertex 1 and the fresh color at vertex 2, so the swap
        # color comes from what vertex 0 uses and vertex 2 does not
        lists = L({1, 2}, {1, 2}, {2, 3})
        _, report = to_waterfall(lists, (1, 1, 1))
        back = pull_back_coloring(report, L({1}, {2}, {4}), lists, (1, 1, 1))
        assert back == L({2}, {1}, {2})
        assert validate_coloring(Instance.path((1, 1, 1), lists), back)

    def test_rejects_coloring_invalid_for_transformed_list(self):
        lists = L({1}, {1, 2}, {1, 3})
        _, report = to_waterfall(lists, (1, 1, 1))
        with pytest.raises(InvalidInputError):
            pull_back_coloring(report, L({1}, {1}, {4}), lists, (1, 1, 1))

    @pytest.mark.parametrize("coloring", [5, [[[1]]]], ids=["not-iterable", "unhashable"])
    def test_rejects_coloring_of_the_wrong_shape(self, coloring):
        # Python's own TypeError text follows the prefix
        prefix = "a coloring must be collections of colors: "
        with pytest.raises(InvalidInputError, match=f"^{re.escape(prefix)}"):
            pull_back_coloring(TransformReport(), coloring, [[1]], [1])

    def test_rejects_non_good_list(self):
        # the repair's swap color exists only under the good bound
        report = TransformReport(replacements=((2, 4, 2, 2),))
        message = "list is not good: interior vertex 1 has |L(1)| = 1 < w(1) + w(2) = 3"
        with pytest.raises(NotGoodError, match=f"^{re.escape(message)}$"):
            pull_back_coloring(report, [{0}, {2}, {3, 4}], [[0, 1, 2], [2], [2, 3]], (1, 1, 2))

    def test_forged_report_is_bad_input(self):
        # events in range, but not the transform of these lists: the
        # pulled-back coloring fails, and the re-plan blames the report
        report = TransformReport(
            run_renames=((2, 5, 0, 1),),
            relabel_map=((0, 1),),
            replacements=((0, 5, 0, 0),),
        )
        message = "report is not the transform of these lists"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            pull_back_coloring(report, [{4}, {1}], [{0, 3, 4}, {1, 2, 3}], (1, 1))

    @pytest.mark.parametrize(
        "event, message",
        [
            ((1, 9, 2, 10**9), "interval (2, 1000000000) out of range for 3 vertices"),
            ((1, 9, -1, 0), "interval (-1, 0) out of range for 3 vertices, got -1"),
            ((1, 9, 2, 1), "interval (2, 1) out of range for 3 vertices"),
            ((1, 9, 0.5, 1), "interval (0.5, 1) out of range for 3 vertices, got 0.5"),
        ],
        ids=["past-the-end", "negative-start", "empty", "float-start"],
    )
    @pytest.mark.parametrize("stage", ["run_renames", "replacements"])
    def test_rejects_report_event_off_the_path(self, stage, event, message):
        report = TransformReport(**{stage: (event,)})
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            pull_back_coloring(report, [{1}, {2}, {3}], [{1}, {1, 2}, {1, 3}], (1, 1, 1))

    def test_every_waterfall_coloring_pulls_back(self):
        # enumerate every coloring of the transformed list, not only the
        # oracle's first one, and pull each back; the second list makes a
        # fresh color long again, so events nest; the third has a detached
        # run, a relabel and a replacement; in the fourth each color's chain
        # has three replacements, and every repair needs the exchange
        for lists in (
            L({1, 2}, {1, 2, 3}, {2, 3}, {3, 4}),
            L({1, 9}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 3}),
            L({1}, {1, 2}, {1, 3}, {2, 3}, {9}),
            L(*[{1, 2}] * 7),
        ):
            w = (1,) * len(lists)
            out, report = to_waterfall(lists, w)
            inst = Instance.path(w, out)
            original = Instance.path(w, lists)
            count = 0
            for combo in itertools.product(*[sorted(s) for s in out]):
                coloring = tuple(frozenset({c}) for c in combo)
                if not validate_coloring(inst, coloring):
                    continue
                back = pull_back_coloring(report, coloring, lists, w)
                assert validate_coloring(original, back)
                count += 1
            assert count > 0

    def test_single_run_round_trip_is_linear(self):
        # each color is one run of 10^5 vertices, a chain of 5 * 10^4
        # replacements; renaming each over the rest of its span would take
        # most of an hour
        m = 100_000
        lists, w = [[0, 1]] * m, [1] * m
        out, report = to_waterfall(lists, w)
        assert report.iterations == 2 * (m // 2 - 1)
        assert (out, report) == reference_to_waterfall(lists, w)
        decision = decide_waterfall(out, w)
        back = pull_back_coloring(report, decision.coloring, lists, w)
        assert validate_coloring(Instance.path(w, lists), back)

    def test_long_round_trip_memory(self):
        # the pull-back keeps one working list, not a copy per replacement
        w, lists = planted_good_path(3, 3000)
        out, report = to_waterfall(lists, w)
        decision = decide_waterfall(out, w)
        assert decision.colorable
        tracemalloc.start()
        try:
            back = pull_back_coloring(report, decision.coloring, lists, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert validate_coloring(Instance.path(w, lists), back)
        assert peak < 64 * 2**20
