import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from choosable import Certificate, Decision, Instance, counterexample_list
from choosable.cli import (
    ParseError,
    emit_decision,
    emit_instance,
    main,
    parse_decision,
    parse_instance,
)
from helpers import L, planted_good_path


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
        import choosable.cli as cli

        def boom(lists, weights):
            raise RuntimeError("forced\nfailure")

        monkeypatch.setattr(cli, "hall_check_path", boom)
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

    def test_waterfall_rejects_non_good(self, tmp_path, capsys):
        doc = '{"graph":"path","weights":[1,1,1],"lists":[[1,2,3],[1],[1,2,3]]}'
        assert main(["waterfall", self._doc(tmp_path, doc)]) == 2

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
