import hashlib
import io
import json
import random
import subprocess
import sys
import tracemalloc

import pytest

from choosable import (
    Certificate,
    Decision,
    Instance,
    TransformReport,
    counterexample_list,
    to_waterfall,
)
from choosable.cli import (
    _CHUNK,
    ParseError,
    emit_decision,
    emit_instance,
    main,
    parse_decision,
    parse_instance,
)
from helpers import L, planted_good_path, reference_waterfall_doc


PATH_DOC = '{"graph":"path","weights":[1,1],"lists":[[1,2],[2,3]]}'
BAD_PATH_DOC = '{"graph":"path","weights":[1,1],"lists":[[1],[1]]}'
COUNTEREXAMPLE_DOC = (
    '{"graph":"cycle","weights":[2,2,2,2],'
    '"lists":[[1,2,3,4],[1,2,3,4],[3,4,5,6],[1,2,5,6]],'
    '"forced":{"vertex":0,"colors":[1,2]}}'
)


class TestParseInstance:
    def test_path_document(self):
        inst = parse_instance(PATH_DOC)
        assert inst == Instance.path((1, 1), L({1, 2}, {2, 3}))

    def test_cycle_too_short(self):
        with pytest.raises(ValueError, match="three vertices"):
            parse_instance('{"graph":"cycle","weights":[1,1],"lists":[[1],[2]]}')

    def test_counterexample_document_matches_generator(self):
        assert parse_instance(COUNTEREXAMPLE_DOC) == counterexample_list(4, 2, 4)

    def test_duplicates_removed_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate colors removed from list 0"):
            inst = parse_instance('{"graph":"path","weights":[1],"lists":[[1,1,2]]}')
        assert inst.lists == (frozenset({1, 2}),)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1 column"):
            parse_instance("{nope}")

    def test_missing_field_named(self):
        with pytest.raises(ParseError, match='"weights"'):
            parse_instance('{"graph":"path","lists":[[1]]}')

    def test_non_integer_color_named(self):
        with pytest.raises(ParseError, match=r"lists\[0\]\[1\]"):
            parse_instance('{"graph":"path","weights":[1],"lists":[[1,"x"]]}')

    def test_forced_requires_cycle(self):
        doc = '{"graph":"path","weights":[1],"lists":[[1]],"forced":{"vertex":0,"colors":[1]}}'
        with pytest.raises(ValueError, match="cycle"):
            parse_instance(doc)

    def test_unknown_graph_kind(self):
        with pytest.raises(ParseError, match='"graph"'):
            parse_instance('{"graph":"tree","weights":[1],"lists":[[1]]}')


class TestEmit:
    def test_colorable_document(self):
        d = Decision(True, coloring=L({1}, {2}))
        assert emit_decision(d) == '{"colorable": true, "coloring": [[1], [2]]}'

    def test_certificate_document(self):
        d = Decision(False, certificate=Certificate(0, 1, 1, 2))
        assert (
            emit_decision(d)
            == '{"colorable": false, "certificate": {"i": 0, "j": 1, "amplitude": 1, "demand": 2}}'
        )

    def test_decision_round_trip(self):
        for d in [
            Decision(True, coloring=L({2, 1}, set(), {5})),
            Decision(False, certificate=Certificate(1, 3, 4, 6)),
        ]:
            assert parse_decision(emit_decision(d)) == d

    def test_instance_round_trip(self):
        for obj in [
            Instance.path((1, 2), L({1, 2}, {3})),
            counterexample_list(4, 2, 4),
        ]:
            assert parse_instance(emit_instance(obj)) == obj


class TestMain:
    def _doc(self, tmp_path, text, name="inst.json"):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    def test_decide_colorable_exit_zero(self, tmp_path, capsys):
        rc = main(["decide", self._doc(tmp_path, PATH_DOC)])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out) == {"colorable": True, "coloring": [[1], [2]]}

    def test_decide_not_colorable_exit_one(self, tmp_path, capsys):
        rc = main(["decide", self._doc(tmp_path, BAD_PATH_DOC)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["colorable"] is False

    def test_decide_forced_cycle(self, tmp_path, capsys):
        rc = main(["decide", self._doc(tmp_path, COUNTEREXAMPLE_DOC)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"] == {"i": 0, "j": 4, "amplitude": 8, "demand": 10}

    def test_decide_bare_cycle_is_input_error(self, tmp_path, capsys):
        doc = '{"graph":"cycle","weights":[1,1,1],"lists":[[1],[2],[3]]}'
        rc = main(["decide", self._doc(tmp_path, doc)])
        assert rc == 2
        assert "forced" in capsys.readouterr().err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        rc = main(["decide", self._doc(tmp_path, "{broken")])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        rc = main(["decide", "/nonexistent/file.json"])
        assert rc == 2

    def test_internal_invariant_exit_three(self, tmp_path, capsys, monkeypatch):
        import choosable.hall as hall
        from choosable import InternalInvariantError

        def boom(lists, weights):
            raise InternalInvariantError("forced failure")

        monkeypatch.setattr(hall, "_greedy", boom)
        rc = main(["decide", self._doc(tmp_path, PATH_DOC)])
        assert rc == 3
        assert "internal invariant" in capsys.readouterr().err

    def test_unexpected_exception_exit_three(self, tmp_path, capsys, monkeypatch):
        import choosable.hall as hall

        def boom(inst):
            raise RuntimeError("forced\nfailure")

        monkeypatch.setattr(hall, "_decide", boom)
        rc = main(["decide", self._doc(tmp_path, PATH_DOC)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_long_path_decide_then_verify(self, tmp_path, capsys):
        w, lists = planted_good_path(7, 100_000)
        inst = self._doc(tmp_path, json.dumps({"graph": "path", "weights": w, "lists": lists}))
        assert main(["decide", inst]) == 0
        answer = self._doc(tmp_path, capsys.readouterr().out, "answer.json")
        assert main(["verify", inst, answer]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_long_path_late_violation(self, tmp_path, capsys):
        # colorable up to its last two vertices, which share one color
        rng = random.Random(5)
        m = 100_000
        w = [1] * m
        lists = [rng.sample(range(12), 3) for _ in range(m - 2)] + [[100], [100]]
        inst = self._doc(tmp_path, json.dumps({"graph": "path", "weights": w, "lists": lists}))
        assert main(["decide", inst]) == 1
        assert json.loads(capsys.readouterr().out)["certificate"] == {
            "i": 99998,
            "j": 99999,
            "amplitude": 1,
            "demand": 2,
        }

    def test_decide_long_path_golden(self, tmp_path, capsys):
        # non-good: weights 1, 2, 3 repeating, |L(v)| = w(v-1) + w(v), planted coloring
        rng = random.Random(12)
        w = [1 + v % 3 for v in range(900)]
        lists, planted = [], set()
        for v, wv in enumerate(w):
            planted = rng.sample([x for x in range(12) if x not in planted], wv)
            extra = rng.sample([x for x in range(12) if x not in planted], w[v - 1] if v else 0)
            lists.append(planted + extra)
        good, non_good = planted_good_path(11, 900), (w, lists)
        golden = {
            "52ccc958f73ab895994262b8f4ad5d5e6a581357eaed2cab2eaba3d074efba77": good,
            "c6d390054bf1818cf8a471081e3dffc07fff10d7b0eb333b4081af338808bf11": non_good,
        }
        for digest, (weights, colors) in golden.items():
            doc = json.dumps({"graph": "path", "weights": weights, "lists": colors})
            assert main(["decide", self._doc(tmp_path, doc)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_oracle_subcommand(self, tmp_path, capsys):
        doc = '{"graph":"cycle","weights":[1,1,1],"lists":[[1,2],[1,2],[1,2]]}'
        rc = main(["oracle", self._doc(tmp_path, doc)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["colorable"] is False

    def test_oracle_budget_exit_two(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "graph": "path",
                "weights": [1] * 6,
                "lists": [[1, 2, 3, 4]] * 6,
            }
        )
        rc = main(["oracle", "--budget", "3", self._doc(tmp_path, doc)])
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_oracle_budget_exit_two_on_wide_lists(self, tmp_path, capsys):
        # C(20, 10) candidates a vertex: the budget ends the run, not memory
        doc = json.dumps({"graph": "path", "weights": [10, 10], "lists": [list(range(20))] * 2})
        rc = main(["oracle", "--budget", "1000", self._doc(tmp_path, doc)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search budget exceeded after 1001 nodes (cap 1000)\n"

    def test_waterfall_subcommand(self, tmp_path, capsys):
        doc = '{"graph":"path","weights":[1,1,1],"lists":[[1],[1,2],[1,3]]}'
        rc = main(["waterfall", self._doc(tmp_path, doc)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lists"] == [[1], [1, 2], [3, 4]]
        assert out["report"]["replacements"] == [
            {"old": 1, "new": 4, "start": 2, "end": 2}
        ]
        assert out["report"]["iterations"] == 1

    def test_waterfall_golden_output(self, tmp_path, capsys):
        # a good, non-waterfall 8-vertex path that takes every stage of the
        # transform; the bytes are pinned so the transform cannot drift
        doc = (
            '{"graph":"path","weights":[1,1,1,2,1,1,1,1],"lists":'
            "[[3,1],[1,3],[1,2,4],[2,4,5],[5,6],[1,6,7],[1,7],[3,7]]}"
        )
        assert main(["waterfall", self._doc(tmp_path, doc)]) == 0
        assert capsys.readouterr().out == (
            '{"lists": [[1, 2], [1, 2], [3, 4, 10], [3, 4, 5], [5, 6], [6, 7, 8], '
            '[7, 8], [9, 11]], "report": {"run_renames": [{"old": 1, "new": 8, '
            '"start": 5, "end": 6}, {"old": 3, "new": 9, "start": 7, "end": 7}], '
            '"relabel_map": [[1, 2], [2, 3], [3, 1], [7, 8], [8, 7]], "replacements": '
            '[{"old": 2, "new": 10, "start": 2, "end": 2}, {"old": 8, "new": 11, '
            '"start": 7, "end": 7}], "fresh_colors": [8, 9, 10, 11], "iterations": 2}}\n'
        )

    def test_waterfall_golden_queue_order(self, tmp_path, capsys):
        # fresh color 10 is long again and is replaced after original 3,
        # so a fresh label re-enters the replace loop; bytes pinned
        doc = (
            '{"graph":"path","weights":[1,1,1,1,1,1],'
            '"lists":[[1,9],[1,2],[1,2],[1,2],[1,2],[1,3]]}'
        )
        assert main(["waterfall", self._doc(tmp_path, doc)]) == 0
        assert capsys.readouterr().out == (
            '{"lists": [[1, 2], [2, 3], [3, 10], [10, 11], [11, 12], [9, 12]], '
            '"report": {"run_renames": [], "relabel_map": [[1, 2], [2, 3], [3, 9], '
            '[9, 1]], "replacements": [{"old": 2, "new": 10, "start": 2, "end": 5}, '
            '{"old": 3, "new": 11, "start": 3, "end": 4}, {"old": 10, "new": 12, '
            '"start": 4, "end": 5}], "fresh_colors": [10, 11, 12], "iterations": 3}}\n'
        )

    def test_waterfall_long_path_golden(self, tmp_path, capsys):
        # 6 of 12 colors at weight 2, and 3 of 5 colors at weight 1: every
        # stage of the transform runs hundreds of times; bytes pinned
        golden = {
            "5436d23f70c0ebb562a744275784f8db07ac2d4ca77aa3c945f2a36cc809fa9a": (21, 900),
            "7906a452e9b51a86ad9fc945dd39f5db5de4cbe736423bf4c562ca22c846bd97": (22, 900, 1, 3, 5),
        }
        for digest, shape in golden.items():
            weights, colors = planted_good_path(*shape)
            doc = json.dumps({"graph": "path", "weights": weights, "lists": colors})
            assert main(["waterfall", self._doc(tmp_path, doc)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_waterfall_rejects_non_good(self, tmp_path, capsys):
        # a failing waterfall leaves no partial document on stdout
        doc = '{"graph":"path","weights":[1,1,1],"lists":[[1,2,3],[1],[1,2,3]]}'
        for text in (doc, COUNTEREXAMPLE_DOC):
            assert main(["waterfall", self._doc(tmp_path, text)]) == 2
            assert capsys.readouterr().out == ""

    def test_waterfall_matches_reference_document(self, tmp_path, capsys):
        # seeded good paths of every stage, and the edge cases: a list
        # already in waterfall form (empty report arrays), a single vertex,
        # all-zero weights with an empty list, and colors above 2^31
        rng = random.Random(15)
        paths = [
            ([1, 1], [[1, 2], [2, 3]]),
            ([2], [[5, 1, 3]]),
            ([0] * 6, [[1, 2], [1, 2], [], [1, 2], [2], [1, 2, 3]]),
            ([1, 1, 1, 1], [[2**31, 2**40], [2**40, 2**31 + 1], [2**40, 7], [2**40, 2**32]]),
        ]
        for seed in range(40):
            weight = rng.randint(1, 2)
            size = rng.randint(2 * weight, 2 * weight + 3)
            shape = (seed, rng.randint(1, 300), weight, size, rng.randint(size, size + 6))
            paths.append(planted_good_path(*shape))
        outputs = []
        for weights, lists in paths:
            doc = json.dumps({"graph": "path", "weights": weights, "lists": lists})
            assert main(["waterfall", self._doc(tmp_path, doc)]) == 0
            outputs.append(capsys.readouterr().out)
            expected = reference_waterfall_doc(*to_waterfall(lists, weights))
            assert outputs[-1] == json.dumps(expected) + "\n"
        assert outputs[0].endswith(
            '"report": {"run_renames": [], "relabel_map": [], "replacements": [], '
            '"fresh_colors": [], "iterations": 0}}\n'
        )
        # every path past the single vertex takes stage 3 at least once
        assert all('"iterations": 0}' not in out for out in outputs[2:])

    def test_waterfall_document_spans_chunks(self, tmp_path, capsys):
        # every array of the document is written in more than one chunk
        weights, lists = planted_good_path(21, 6000)
        transformed, report = to_waterfall(lists, weights)
        sections = (
            transformed,
            report.run_renames,
            report.relabel_map,
            report.replacements,
            report.fresh_colors,
        )
        assert [len(section) for section in sections] == [6000, 18741, 10321, 5619, 24360]
        assert min(map(len, sections)) > _CHUNK
        doc = json.dumps({"graph": "path", "weights": weights, "lists": lists})
        assert main(["waterfall", self._doc(tmp_path, doc)]) == 0
        expected = json.dumps(reference_waterfall_doc(transformed, report)) + "\n"
        assert capsys.readouterr().out == expected

    def test_waterfall_form_input_spans_chunks(self, tmp_path, capsys):
        # a list already in waterfall form keeps its labels through the
        # stages, which place them like any other; its labels are shuffled,
        # so their order disagrees with the order of their spans
        weights, lists = planted_good_path(22, 6000)
        transformed, _ = to_waterfall(lists, weights)
        labels = sorted(set().union(*transformed))
        shuffled = labels[:]
        random.Random(22).shuffle(shuffled)
        rename = dict(zip(labels, shuffled))
        lists = [[rename[x] for x in entry] for entry in transformed]
        moved, report = to_waterfall(lists, weights)
        assert report == TransformReport() and len(moved) > _CHUNK
        doc = json.dumps({"graph": "path", "weights": weights, "lists": lists})
        assert main(["waterfall", self._doc(tmp_path, doc)]) == 0
        expected = json.dumps(reference_waterfall_doc(moved, report)) + "\n"
        assert capsys.readouterr().out == expected

    def _peak(self, tmp_path, capsys, command, m):
        """The ``tracemalloc`` peak of ``command`` on a good path of ``m`` vertices."""
        weights, lists = planted_good_path(21, m)
        text = json.dumps({"graph": "path", "weights": weights, "lists": lists})
        doc = self._doc(tmp_path, text)
        # a first run keeps one-time setup out of the measured peak
        assert main([command, self._doc(tmp_path, PATH_DOC, "warm.json")]) == 0
        tracemalloc.start()
        try:
            assert main([command, doc]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        return peak

    def test_waterfall_memory_on_a_long_path(self, tmp_path, capsys):
        # the document is written a chunk at a time from the labels the
        # stages place, with no dict per event, no json token list and no
        # sorted copy of the fresh labels: about 1.4 MiB (2.0 MiB from a
        # tuple of frozensets, 5.8 MiB with a dict per event dumped by json)
        assert self._peak(tmp_path, capsys, "waterfall", 900) < 1.7 * 2**20

    def test_waterfall_writes_without_the_instance(self, tmp_path, capsys):
        # the parsed instance is dropped once its runs are scanned, the
        # stages' per-vertex label lists are written as they are, and each
        # array goes out a chunk at a time: about 12.8 MiB at 10^4
        # vertices, 21.6 MiB while the transform was held as frozensets
        # beside the instance, 26.8 MiB while each section was one string
        assert self._peak(tmp_path, capsys, "waterfall", 10_000) < 16 * 2**20

    def test_decide_writes_without_the_instance(self, tmp_path, capsys):
        # the parsed instance is dropped once the decision is made: about
        # 9.4 MB at 10^4 vertices, 11.5 MB while it was kept
        assert self._peak(tmp_path, capsys, "decide", 10_000) < 10.5 * 2**20

    def test_verify_valid_and_invalid(self, tmp_path, capsys):
        inst = self._doc(tmp_path, PATH_DOC)
        good = self._doc(tmp_path, '{"coloring":[[1],[2]]}', "good.json")
        bad = self._doc(tmp_path, "[[2],[2]]", "bad.json")
        assert main(["verify", inst, good]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True}
        assert main(["verify", inst, bad]) == 1

    def test_verify_accepts_decision_document(self, tmp_path, capsys):
        inst = self._doc(tmp_path, PATH_DOC)
        main(["decide", inst])
        decision_doc = self._doc(tmp_path, capsys.readouterr().out, "decision.json")
        assert main(["verify", inst, decision_doc]) == 0

    def test_verify_forced_cycle_checks_pin(self, tmp_path, capsys):
        inst = self._doc(tmp_path, COUNTEREXAMPLE_DOC)
        # proper cycle coloring of those lists, but ignoring the forced pin
        unpinned = self._doc(tmp_path, "[[3,4],[1,2],[5,6],[1,2]]", "c.json")
        assert main(["verify", inst, unpinned]) == 1

    def test_fchr_subcommand(self, capsys):
        assert main(["fchr", "--n", "7"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": 7, "fchr": {"num": 7, "den": 3}}

    def test_free_choosable_exit_codes(self, capsys):
        assert main(["free-choosable", "--a", "5", "--b", "2", "--n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["free_choosable"] is True
        assert main(["free-choosable", "--a", "7", "--b", "3", "--n", "4"]) == 1

    def test_counterexample_pipes_into_decide_and_oracle(self, tmp_path, capsys):
        assert main(["counterexample", "--a", "4", "--b", "2", "--n", "4"]) == 0
        doc = capsys.readouterr().out
        assert parse_instance(doc) == counterexample_list(4, 2, 4)
        path = self._doc(tmp_path, doc, "ce.json")
        assert main(["decide", path]) == 1
        capsys.readouterr()
        assert main(["oracle", path]) == 1

    def test_counterexample_at_threshold_exit_two(self, capsys):
        # at the threshold, and with a forced set larger than the lists
        for a, b, n in ((5, 2, 4), (2, 3, 4)):
            assert main(["counterexample", "--a", str(a), "--b", str(b), "--n", str(n)]) == 2
            assert capsys.readouterr().err.startswith("invalid input: ")

    @pytest.mark.parametrize(
        "instance, coloring, field",
        [
            ('{"graph":"path","weights":[1,1],"lists":[[1],[2,3,1.0]]}', None, "lists[1][2]"),
            ('{"graph":"path","weights":[1,true],"lists":[[1],[2]]}', None, "weights[1]"),
            (
                '{"graph":"cycle","weights":[2,1,1],"lists":[[1,2],[3],[4]],'
                '"forced":{"vertex":0,"colors":[1,"2"]}}',
                None,
                "forced.colors[1]",
            ),
            (PATH_DOC, '{"coloring":[[1],[null]]}', "coloring[1][0]"),
        ],
    )
    def test_non_integer_deep_in_a_document_exit_two(
        self, tmp_path, capsys, instance, coloring, field
    ):
        argv = ["verify", self._doc(tmp_path, instance)]
        if coloring is None:
            argv = ["decide", argv[1]]
        else:
            argv.append(self._doc(tmp_path, coloring, "c.json"))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f'parse error: field "{field}" must be an integer\n'

    @pytest.mark.parametrize(
        "payload",
        [
            b"[" * 100_000 + b"]" * 100_000,
            b'{"graph":"path","weights":[1],"lists":[[' + b"7" * 5000 + b"]]}",
            b"\xff\xfe",
        ],
        ids=["nested", "long-integer", "not-utf8"],
    )
    @pytest.mark.parametrize(
        "where", ["decide", "decide-stdin", "verify-instance", "verify-coloring"]
    )
    def test_malformed_input_is_a_parse_error(
        self, tmp_path, capsys, monkeypatch, payload, where
    ):
        # each used to escape as an unexpected exception and exit 3
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        good = self._doc(tmp_path, PATH_DOC)
        argv = {
            "decide": ["decide", str(bad)],
            "decide-stdin": ["decide", "-"],
            "verify-instance": ["verify", str(bad), good],
            "verify-coloring": ["verify", good, str(bad)],
        }[where]
        stdin = io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1

    def test_counterexample_odd_length_exit_zero(self, capsys):
        assert main(["counterexample", "--a", "7", "--b", "3", "--n", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lists"] == [list(range(1, 8))] * 5
        assert doc["forced"] == {"vertex": 0, "colors": [1, 2, 3]}

    def test_negative_color_exit_two(self, tmp_path, capsys):
        doc = self._doc(tmp_path, '{"graph":"path","weights":[1,1],"lists":[[-1],[-2,5]]}')
        for command in ("decide", "oracle", "waterfall"):
            assert main([command, doc]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "invalid input: colors must be non-negative integers, got -1\n"

    def test_warning_is_one_stable_line(self, tmp_path, capsys):
        doc = self._doc(tmp_path, '{"graph":"path","weights":[1],"lists":[[1,1]]}')
        assert main(["decide", doc]) == 0
        out, err = capsys.readouterr()
        assert out == '{"colorable": true, "coloring": [[1]]}\n'
        assert err == "warning: duplicate colors removed from list 0\n"

    def test_quiet_suppresses_warnings(self, tmp_path, capsys, recwarn):
        doc = self._doc(tmp_path, '{"graph":"path","weights":[1],"lists":[[1,1]]}')
        rc = main(["--quiet", "decide", doc])
        assert rc == 0
        assert not [w for w in recwarn.list if "duplicate" in str(w.message)]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(COUNTEREXAMPLE_DOC)
        outputs = []
        for _ in range(3):
            main(["decide", str(f)])
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_subprocess_runs_byte_identical(self, tmp_path):
        f = tmp_path / "inst.json"
        f.write_text(PATH_DOC)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "choosable", "decide", str(f)],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0


# ``--help`` of the program and of each subcommand at 80 columns, as the
# argparse of Python 3.11 writes it; the oracle's line shows the default
# node cap of SearchBudget.
HELP = {
    (): """\
usage: choosable [-h] [--quiet]
                 {decide,waterfall,oracle,verify,fchr,free-choosable,counterexample}
                 ...

List multicoloring of weighted paths and free-choosability of cycles.

positional arguments:
  {decide,waterfall,oracle,verify,fchr,free-choosable,counterexample}
    decide              decide an instance (path or forced cycle)
    waterfall           transform a good path list to waterfall form
    oracle              decide by exhaustive search
    verify              check a coloring against an instance
    fchr                free-choice ratio of the cycle of length n
    free-choosable      is the cycle of length n (a, b)-free-choosable
    counterexample      emit a counterexample cycle instance

options:
  -h, --help            show this help message and exit
  --quiet               suppress warnings
""",
    ("decide",): """\
usage: choosable decide [-h] file

positional arguments:
  file        instance document, or - for stdin

options:
  -h, --help  show this help message and exit
""",
    ("waterfall",): """\
usage: choosable waterfall [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    ("oracle",): """\
usage: choosable oracle [-h] [--budget BUDGET] file

positional arguments:
  file

options:
  -h, --help       show this help message and exit
  --budget BUDGET  search node cap (default 10000000)
""",
    ("verify",): """\
usage: choosable verify [-h] instance coloring

positional arguments:
  instance
  coloring

options:
  -h, --help  show this help message and exit
""",
    ("fchr",): """\
usage: choosable fchr [-h] --n N

options:
  -h, --help  show this help message and exit
  --n N
""",
    ("free-choosable",): """\
usage: choosable free-choosable [-h] --a A --b B --n N

options:
  -h, --help  show this help message and exit
  --a A
  --b B
  --n N
""",
    ("counterexample",): """\
usage: choosable counterexample [-h] --a A --b B --n N

options:
  -h, --help  show this help message and exit
  --a A
  --b B
  --n N
""",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout of Python 3.11")
@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(c) or "choosable")
def test_help_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")
