"""Tests of the benchmark's answer checker and generators.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import random
import unittest

import check
import gen

PATH = {"graph": "path", "weights": [1, 2, 1], "lists": [[1, 2], [2, 3, 4], [4, 5]]}
GOOD = [[1], [2, 3], [4]]


class TestColoring(unittest.TestCase):
    def test_accepts_a_proper_coloring(self):
        self.assertEqual(check.check_coloring(PATH, GOOD), [])

    def test_rejects_a_wrong_size_set(self):
        problems = check.check_coloring(PATH, [[1], [2], [4]])
        self.assertTrue(any("weight 2" in p for p in problems), problems)

    def test_rejects_a_color_outside_the_list(self):
        self.assertTrue(check.check_coloring(PATH, [[3], [2, 3], [4]]))

    def test_rejects_an_improper_edge(self):
        problems = check.check_coloring(PATH, [[2], [2, 3], [4]])
        self.assertTrue(any("edge 0-1" in p for p in problems), problems)

    def test_rejects_an_improper_wrap_edge(self):
        cycle = {"graph": "cycle", "weights": [1, 1, 1], "lists": [[1, 2], [2, 3], [1, 3]]}
        self.assertEqual(check.check_coloring(cycle, [[1], [2], [3]]), [])
        problems = check.check_coloring(cycle, [[1], [2], [1]])
        self.assertTrue(any("edge 2-0" in p for p in problems), problems)

    def test_rejects_a_repeated_color(self):
        self.assertTrue(check.check_coloring(PATH, [[1], [2, 2], [4]]))

    def test_rejects_a_missed_pin(self):
        doc = {
            "graph": "cycle",
            "weights": [1, 1, 1],
            "lists": [[1, 2], [2, 3], [1, 3]],
            "forced": {"vertex": 0, "colors": [2]},
        }
        problems = check.check_coloring(doc, [[1], [2], [3]])
        self.assertTrue(any("forced" in p for p in problems), problems)


class TestCertificate(unittest.TestCase):
    PAIR = {"graph": "path", "weights": [1, 2], "lists": [[1, 2], [1, 2]]}

    def test_accepts_a_true_violation(self):
        cert = {"i": 0, "j": 1, "amplitude": 2, "demand": 3}
        self.assertEqual(check.check_certificate(self.PAIR, cert), [])

    def test_rejects_a_recount_that_reaches_the_demand(self):
        doc = {"graph": "path", "weights": [1, 1, 1], "lists": [[1], [1], [2, 3, 4, 5, 6]]}
        cert = {"i": 0, "j": 2, "amplitude": 6, "demand": 3}
        problems = check.check_certificate(doc, cert)
        self.assertTrue(any("reaches the demand" in p for p in problems), problems)

    def test_rejects_a_misreported_amplitude(self):
        cert = {"i": 0, "j": 1, "amplitude": 1, "demand": 3}
        self.assertTrue(check.check_certificate(self.PAIR, cert))

    def test_rejects_a_misreported_demand(self):
        cert = {"i": 0, "j": 1, "amplitude": 2, "demand": 4}
        self.assertTrue(check.check_certificate(self.PAIR, cert))

    def test_hall_sum_counts_half_runs(self):
        # Color 1 runs over three vertices (2), color 2 twice apart (1 + 1).
        lists = [[1, 2], [1], [1, 2]]
        self.assertEqual(check.hall_sum(lists, 0, 2), 4)

    def test_pinned_cycle_certificate_speaks_of_the_cut_path(self):
        doc = gen.counterexample(random.Random(0), 4, 2, 4).doc
        lists, weights = check.cut_path(doc)
        self.assertEqual(len(lists), 5)
        self.assertEqual(lists[0], lists[-1])
        demand = sum(weights)
        amplitude = check.hall_sum(lists, 0, 4)
        cert = {"i": 0, "j": 4, "amplitude": amplitude, "demand": demand}
        self.assertEqual(check.check_certificate(doc, cert), [])


class TestWaterfallAndExitCodes(unittest.TestCase):
    def test_waterfall_form_and_sizes(self):
        doc = {"graph": "path", "weights": [1, 1, 1], "lists": [[1], [1, 2], [1, 3]]}
        self.assertEqual(check.check_waterfall(doc, {"lists": [[1], [1, 2], [3, 4]]}), [])
        self.assertTrue(check.check_waterfall(doc, {"lists": [[1], [1, 2], [1, 3]]}))
        self.assertTrue(check.check_waterfall(doc, {"lists": [[1], [1, 2], [3]]}))

    def test_exit_codes(self):
        self.assertEqual(check.check_exit_code(0, True), [])
        self.assertEqual(check.check_exit_code(1, False), [])
        self.assertTrue(check.check_exit_code(1, True))
        self.assertTrue(check.check_exit_code(0, False))


class TestGenerators(unittest.TestCase):
    def test_planted_colorings_check(self):
        rng = random.Random(3)
        cases = [gen.uniform_good_path(rng, 30), gen.non_good_path(rng, 30)]
        cases.append(gen.good_waterfall_path(rng, 30, [rng.randint(1, 2) for _ in range(30)]))
        for case in cases:
            self.assertEqual(check.check_coloring(case.doc, case.coloring), [], case.family)

    def test_good_waterfall_lists_are_waterfall(self):
        rng = random.Random(4)
        case = gen.good_waterfall_path(rng, 50, [rng.randint(0, 2) for _ in range(50)])
        self.assertEqual(check.check_waterfall(case.doc, case.doc), [])

    def test_c1_draws_are_waterfall(self):
        rng = random.Random(8)
        for _ in range(200):
            case = gen.random_waterfall_path(rng)
            self.assertEqual(check.check_waterfall(case.doc, case.doc), [], case.lists)

    def test_corrupted_coloring_fails(self):
        rng = random.Random(5)
        case = gen.uniform_good_path(rng, 20)
        self.assertTrue(check.check_coloring(case.doc, gen.corrupt(rng, case.coloring)))

    def test_same_seed_same_inputs(self):
        self.assertEqual(gen.small_batch(random.Random(7)), gen.small_batch(random.Random(7)))

    def test_pair_violation_is_a_certificate(self):
        case = gen.pair_violation_path(random.Random(6), 10, 4, 3, 12)
        w = case.weights
        union = check.hall_sum(case.lists, 4, 5)
        self.assertLess(union, w[4] + w[5])


if __name__ == "__main__":
    unittest.main()
