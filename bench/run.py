#!/usr/bin/env python3
"""Benchmark of ``choosable``, end to end and per layer.

    python3 bench/run.py --workload long_paths_cli --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the package is taken from ``src/``.
Inputs are generated from ``--seed``; the program sees only the generated
documents.  Every answer is checked by ``check.py``, which shares no code
with the package.  One caller drives everything in a closed loop: each
operation waits for the previous answer, and command-line operations run
one child process at a time.

A run repeats whole rounds of the same operations until ``--seconds`` have
passed, then prints one JSON line with the metrics.  ``--trace 0`` runs
real ``choosable`` processes, through ``spawner.py``, and reports the
end-to-end metrics, scaled to the reference host speed (see ``pace.py``);
``--trace 1`` replays the command-line operations in-process through
``choosable.cli.main``, alternates rounds without and with spans around
each module's functions (see ``spans.py``) and reports the per-layer
metrics of the traced rounds instead.  Raw samples and spans go to
``.bench_work/`` at the root of the checkout; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import pace  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

OP_TIMEOUT_S = 120  # one operation; a run must end within 180 s
PACE_EVERY_S = 0.5  # a reading of the host's speed, about 20 ms, at most this often

END_TO_END = {
    "setup_s": "s",
    "decide_p50_s": "s",
    "verify_p50_s": "s",
    "waterfall_p50_s": "s",
    "peak_rss_mb": "MB",
    "decisions_per_s": "1/s",
    "oracle_per_s": "1/s",
    "transforms_per_s": "1/s",
}


def answer_of(decision) -> dict:
    """A library ``Decision`` in the command line's answer schema."""
    if decision.colorable:
        return {"colorable": True, "coloring": [sorted(entry) for entry in decision.coloring]}
    cert = decision.certificate
    return {
        "colorable": False,
        "certificate": {
            "i": cert.i,
            "j": cert.j,
            "amplitude": cert.amplitude_size,
            "demand": cert.demand,
        },
    }


class Bench:
    """Runs operations one at a time, times them and checks their answers."""

    def __init__(self, work: Path, tracer: Tracer | None) -> None:
        import choosable.cli

        self.lib = choosable
        self.cli_main = choosable.cli.main
        self.work = work
        self.tracer = tracer
        pythonpath = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        # command -> its arguments (the instance and answer files) -> wall times
        self.process_s: defaultdict[str, defaultdict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.calls: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])  # count, seconds
        self.busy_s = 0.0  # time inside operations this round, checks excluded
        self.busy_rounds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._passed: set = set()
        self.peak_rss_mb = 0.0
        self.pace_s: list[float] = []
        self._pace_at = float("-inf")
        self.spawner = None
        if tracer is None:
            # Started before any input exists, so its children's peaks are their own.
            self.spawner = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py")],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=self.env,
                cwd=ROOT,
            )

    def close(self) -> None:
        """Stop the spawner and wait for it."""
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()

    # -- running ----------------------------------------------------------

    def _fail(self, what, why: str) -> None:
        self.failed += 1
        print(f"failed: {what}: {why}", file=sys.stderr)

    def cli(self, argv: list[str]) -> tuple[int, str] | None:
        """One ``choosable`` command: a child process, or in-process when traced."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli_main(list(argv))
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                return self._fail(argv, repr(exc))
            elapsed = perf_counter() - start
            text, err_text = out.getvalue(), err.getvalue()
        else:
            request = {"argv": [sys.executable, "-m", "choosable", *argv], "timeout": OP_TIMEOUT_S}
            self.spawner.stdin.write(json.dumps(request) + "\n")
            self.spawner.stdin.flush()
            reply = json.loads(self.spawner.stdout.readline())
            if reply["code"] is None:
                return self._fail(argv, "timed out")
            code, text, err_text = reply["code"], reply["stdout"], reply["stderr"]
            elapsed = reply["elapsed"]
            self.peak_rss_mb = reply["peak_rss_mb"]
        self.busy_s += elapsed
        if code not in (0, 1):
            return self._fail(argv, f"exit code {code}: {err_text.strip()[-300:]}")
        if self.tracer is None:
            self.process_s[argv[0]][" ".join(Path(arg).name for arg in argv[1:])].append(elapsed)
        return code, text

    def call(self, kind: str, fn, count: int = 1):
        """One library call, timed under ``kind``; ``count`` calls complete it."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return self._fail(kind, repr(exc))
        elapsed = perf_counter() - start
        self.busy_s += elapsed
        tally = self.calls[kind]
        tally[0] += count
        tally[1] += elapsed
        return result

    def p50(self, command: str) -> float:
        """Median process time per input, combined over inputs by geometric mean.

        Every input counts alike however long it runs, so a slowdown
        confined to one input moves the figure as much on a cheap input as
        on a dear one.
        """
        medians = [statistics.median(times) for times in self.process_s[command].values()]
        return statistics.geometric_mean(medians)

    def pace_tick(self) -> None:
        """A reading of the host's speed, if the last is ``PACE_EVERY_S`` old."""
        if perf_counter() - self._pace_at >= PACE_EVERY_S:
            self.pace_s.append(pace.reading())
            self._pace_at = perf_counter()

    def rate(self, kind: str) -> float:
        count, seconds = self.calls[kind]
        return count / seconds

    def end_round(self) -> None:
        self.busy_rounds.append(self.busy_s)
        self.busy_s = 0.0

    # -- checking ---------------------------------------------------------

    def check(self, key, problems_of) -> bool:
        """Record the problems ``problems_of()`` finds; answers seen passing pass."""
        if key in self._passed:
            return True
        try:
            problems = problems_of()
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed answer: {exc!r}"]
        if problems:
            self.problems.append(f"{key[0]} {key[1]}: {problems[0]}")
            return False
        self._passed.add(key)
        return True

    def write(self, name: str, doc) -> str:
        path = self.work / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# -- operations -----------------------------------------------------------
#
# Each function below returns a function of the Bench that performs one operation
# and checks its answer.  A workload is a list of them: one round.


def setup_op(b: Bench) -> None:
    """A fresh process that imports the package and answers ``fchr --n 8``."""
    got = b.cli(["fchr", "--n", "8"])
    if got is None:
        return
    code, text = got
    b.check(
        ("fchr", "8", text),
        # fchr(8) = 2 + 1/floor(8/2) = 9/4
        lambda: check.check_exit_code(code, True)
        + ([] if json.loads(text) == {"n": 8, "fchr": {"num": 9, "den": 4}} else [f"answer {text!r}"]),
    )


def interleave(first: list, second: list) -> list:
    """Spread ``second`` evenly through ``first``, keeping each list's order."""
    keyed = [(i / len(first), op) for i, op in enumerate(first)]
    keyed += [((j + 0.5) / len(second), op) for j, op in enumerate(second)]
    return [op for _, op in sorted(keyed, key=lambda pair: pair[0])]


def decide_op(name: str, case: gen.Case, path: str, answer_path: str | None = None):
    def op(b: Bench) -> None:
        got = b.cli(["decide", path])
        if got is None:
            return
        code, text = got

        def problems():
            answer = json.loads(text)
            colorable = answer.get("colorable") is True
            return (
                check.check_exit_code(code, colorable)
                + check.check_expectation(case.expect, colorable)
                + check.check_decision(case.doc, answer)
            )

        if b.check(("decide", name, text), problems) and answer_path:
            Path(answer_path).write_text(text, encoding="utf-8")

    return op


def verify_op(name: str, case: gen.Case, path: str, coloring_path: str):
    def op(b: Bench) -> None:
        got = b.cli(["verify", path, coloring_path])
        if got is None:
            return
        code, text = got
        coloring_text = Path(coloring_path).read_text(encoding="utf-8")

        def problems():
            valid = not check.check_coloring(case.doc, json.loads(coloring_text)["coloring"])
            answer = json.loads(text)
            wrong = [] if answer == {"valid": valid} else [f"answer {text.strip()}, valid={valid}"]
            return wrong + check.check_exit_code(code, valid)

        b.check(("verify", name, text, coloring_text), problems)

    return op


def waterfall_op(name: str, case: gen.Case, path: str):
    def op(b: Bench) -> None:
        got = b.cli(["waterfall", path])
        if got is None:
            return
        code, text = got
        b.check(
            ("waterfall", name, text),
            lambda: check.check_exit_code(code, True)
            + check.check_waterfall(case.doc, json.loads(text)),
        )

    return op


def _instance(lib, case: gen.Case):
    doc = case.doc
    if doc["graph"] == "path":
        return lib.Instance.path(doc["weights"], doc["lists"])
    cycle = lib.Instance.cycle(doc["weights"], doc["lists"])
    return lib.FreeChoiceInstance(cycle, doc["forced"]["vertex"], doc["forced"]["colors"])


def library_decide_op(name: str, case: gen.Case, decider: str, verdicts: dict):
    """A library decision; its checked verdict is what the oracle must match."""

    def op(b: Bench) -> None:
        lib = b.lib
        if decider == "solve_free_choice":
            decision = b.call("decisions", lambda: lib.solve_free_choice(_instance(lib, case)))
        else:
            fn = getattr(lib, decider)
            decision = b.call("decisions", lambda: fn(case.lists, case.weights))
        if decision is None:
            return
        answer = answer_of(decision)
        ok = b.check(
            (decider, name, json.dumps(answer)),
            lambda: check.check_expectation(case.expect, decision.colorable)
            + check.check_decision(case.doc, answer),
        )
        if ok:
            verdicts[name] = decision.colorable

    return op


def oracle_op(name: str, case: gen.Case, verdicts: dict):
    """Brute force; a "no" is checked by its verdict alone, see README."""

    def op(b: Bench) -> None:
        lib = b.lib
        if case.doc["graph"] == "path":
            decision = b.call("oracle", lambda: lib.brute_force(_instance(lib, case)))
        else:
            decision = b.call("oracle", lambda: lib.brute_force_forced(_instance(lib, case)))
        if decision is None:
            return
        answer = answer_of(decision)

        def problems():
            found = check.check_expectation(case.expect, decision.colorable)
            if name in verdicts and verdicts[name] != decision.colorable:
                found.append(f"oracle says {decision.colorable}, checked decision disagrees")
            if decision.colorable:
                found += check.check_coloring(case.doc, answer["coloring"])
            return found

        b.check(("oracle", name, json.dumps(answer)), problems)

    return op


def round_trip_op(name: str, case: gen.Case, decide_transformed: bool):
    """``to_waterfall`` then ``pull_back_coloring``, timed as one transform.

    The coloring of the transformed list comes from ``decide_waterfall``
    (timed as a decision) or, for lists already in waterfall form, from the
    planted coloring.
    """

    def op(b: Bench) -> None:
        lib = b.lib
        moved = b.call("transforms", lambda: lib.to_waterfall(case.lists, case.weights), count=0)
        if moved is None:
            return
        transformed, report = moved
        wf_doc = {"graph": "path", "weights": case.weights, "lists": [sorted(e) for e in transformed]}
        b.check(
            ("to_waterfall", name, json.dumps(wf_doc["lists"])),
            lambda: check.check_waterfall(case.doc, wf_doc),
        )
        if decide_transformed:
            decision = b.call(
                "decisions", lambda: lib.decide_waterfall(transformed, case.weights)
            )
            if decision is None:
                return
            answer = answer_of(decision)
            b.check(
                ("decide_waterfall", name, json.dumps(answer)),
                lambda: check.check_expectation(case.expect, decision.colorable)
                + check.check_decision(wf_doc, answer),
            )
            if not decision.colorable:
                return
            coloring = decision.coloring
        else:
            coloring = case.coloring
        back = b.call(
            "transforms",
            lambda: lib.pull_back_coloring(report, coloring, case.lists, case.weights),
        )
        if back is None:
            return
        answer = [sorted(entry) for entry in back]
        b.check(
            ("pull_back", name, json.dumps(answer)),
            lambda: check.check_coloring(case.doc, answer),
        )

    return op


# -- workloads ------------------------------------------------------------


def long_paths_cli(rng: random.Random, b: Bench) -> list:
    """Whole decide/verify/waterfall processes on 900-vertex paths and cycles."""
    cases = {
        "good900": gen.uniform_good_path(rng, 900),
        "nongood900": gen.non_good_path(rng, 900),
        "cycle900": gen.pinned_cycle(rng, 900, 5, 2, 10),
    }
    # Reject mode: the first Hall violation sits at the left end, so the scan
    # stops early and a gain for accept mode that costs reject mode shows.
    left900 = gen.pair_violation_path(rng, 900, 0, 3, 12)
    corrupted = gen.corrupt(rng, cases["good900"].coloring)
    # The library calls get inputs of their own, so that each rate rests on
    # tens of calls a run: six 300-vertex paths, and six more 900-vertex
    # paths for the oracle, which takes a few milliseconds on each.
    good300 = [gen.uniform_good_path(rng, 300) for _ in range(6)]
    oracle900 = [gen.uniform_good_path(rng, 900) for _ in range(6)]
    files = {name: b.write(f"{name}.json", case.doc) for name, case in cases.items()}
    answers = {name: str(b.work / f"{name}.answer.json") for name in cases}
    corrupted_file = b.write("good900.corrupted.json", {"coloring": corrupted})
    # The short verify and waterfall processes run two and three times a
    # round, so that their medians rest on as many samples as a round can give.
    cli = [decide_op(name, case, files[name], answers[name]) for name, case in cases.items()]
    cli.append(decide_op("left900", left900, b.write("left900.json", left900.doc)))
    cli += [verify_op(name, case, files[name], answers[name]) for name, case in cases.items()] * 2
    cli += [verify_op("good900", cases["good900"], files["good900"], corrupted_file)] * 2
    cli += [waterfall_op("good900", cases["good900"], files["good900"])] * 3
    verdicts: dict = {}
    lib = [
        library_decide_op("nongood900", cases["nongood900"], "hall_check_path", verdicts),
        library_decide_op("left900", left900, "hall_check_path", verdicts),
        oracle_op("nongood900", cases["nongood900"], verdicts),
        oracle_op("good900", cases["good900"], verdicts),
    ]
    lib += [oracle_op(f"good900:{k}", case, verdicts) for k, case in enumerate(oracle900)]
    for k, case in enumerate(good300):
        lib += [
            library_decide_op(f"good300:{k}", case, "hall_check_path", verdicts),
            oracle_op(f"good300:{k}", case, verdicts),
            round_trip_op(f"good300:{k}", case, decide_transformed=True),
        ]
    return interleave(interleave(cli, [setup_op] * 3), lib)


def small_batch(rng: random.Random, b: Bench) -> list:
    """A library stream of tiny instances, plus one tiny instance through the CLI.

    Each family gets the calls its acceptance test makes: the oracle checks
    every family but C8's pinned cycles, which that test does not hand to it.
    """
    cases = gen.small_batch(rng)
    verdicts: dict = {}
    deciders = {
        "waterfall": "decide_waterfall",
        "good_waterfall": "decide_waterfall_prefix",
        "pinned_cycle": "solve_free_choice",
        "counterexample": "solve_free_choice",
    }
    lib = []
    for k, case in enumerate(cases):
        name = f"{k}:{case.family}"
        if case.family == "similarity":
            lib.append(round_trip_op(name, case, decide_transformed=True))
        else:
            decider = deciders.get(case.family, "hall_check_path")
            lib.append(library_decide_op(name, case, decider, verdicts))
        if case.family != "pinned_cycle":
            lib.append(oracle_op(name, case, verdicts))
    tiny = gen.good_small_path(rng, 5)
    tiny_file = b.write("tiny.json", tiny.doc)
    tiny_answer = str(b.work / "tiny.answer.json")
    cli = [
        setup_op,
        decide_op("tiny", tiny, tiny_file, tiny_answer),
        verify_op("tiny", tiny, tiny_file, tiny_answer),
        waterfall_op("tiny", tiny, tiny_file),
    ]
    return interleave(cli, lib)


WORKLOADS = {
    "long_paths_cli": long_paths_cli,
    "small_batch": small_batch,
}


# -- main -----------------------------------------------------------------


def run_rounds(b: Bench, ops: list, seconds: float) -> int:
    """Whole rounds until ``seconds`` have passed; returns how many ran."""
    rounds = 0
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        for op in ops:
            b.pace_tick()
            op(b)
        b.end_round()
        rounds += 1
    return rounds


def end_to_end(b: Bench) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics scaled to the reference host speed, and as measured."""
    measured = {
        "setup_s": b.p50("fchr"),
        "decide_p50_s": b.p50("decide"),
        "verify_p50_s": b.p50("verify"),
        "waterfall_p50_s": b.p50("waterfall"),
        "peak_rss_mb": b.peak_rss_mb,
        "decisions_per_s": b.rate("decisions"),
        "oracle_per_s": b.rate("oracle"),
        "transforms_per_s": b.rate("transforms"),
    }
    # Timings follow the readings, but less steeply: across sets of runs their
    # logs moved 0.3 to 1.0 times as far as the readings' (see README.md).
    # Scaling by the square root of the host's slowdown leaves at most half
    # of its drift in, whichever end of that range holds.
    slowdown = (statistics.median(b.pace_s) / pace.PACE_REF_S) ** 0.5
    scaled = dict(measured)
    for name, unit in END_TO_END.items():
        if unit == "s":
            scaled[name] /= slowdown
        elif unit == "1/s":
            scaled[name] *= slowdown
    return scaled, measured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "choosable" / "__init__.py").is_file():
        print(f"error: no choosable sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Start empty: no answer an earlier run left behind may stand in for this run's.
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    b = Bench(work, tracer)
    raw: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        ops = WORKLOADS[args.workload](random.Random(args.seed), b)
        # The inputs and the harness live as long as the run; leave them out of
        # the collector's scans, so a collection costs what the program allocated.
        gc.freeze()

        if tracer is None:
            run_rounds(b, ops, args.seconds)
            metrics, measured = end_to_end(b)
            units = END_TO_END
            raw.update(process_s=b.process_s, calls=b.calls, pace_s=b.pace_s, measured=measured)
            print(
                f"host pace: median {statistics.median(b.pace_s) * 1e3:.2f} ms over "
                f"{len(b.pace_s)} readings, reference {pace.PACE_REF_S * 1e3:.2f} ms",
                file=sys.stderr,
            )
        else:
            # Rounds alternate without and with the wrappers, starting without,
            # so the tracing overhead compares neighbouring rounds.
            rounds = 0
            start = perf_counter()
            while rounds < 2 or perf_counter() - start < args.seconds:
                if rounds % 2:
                    tracer.install()
                for op in ops:
                    op(b)
                b.end_round()
                tracer.uninstall()
                rounds += 1
            traced_rounds = rounds // 2
            metrics = tracer.metrics(traced_rounds)
            units = LAYER_METRICS
            tracer.dump(work / "spans.tsv.gz")
            # The first round also pays for first use, so it is no baseline.
            untraced = statistics.median(b.busy_rounds[2::2] or b.busy_rounds[:1])
            traced = statistics.median(b.busy_rounds[1::2])
            print(
                f"in-process rounds: {rounds - traced_rounds} untraced, median {untraced:.3f} s; "
                f"{traced_rounds} traced, median {traced:.3f} s; tracing overhead {traced - untraced:+.3f} s",
                file=sys.stderr,
            )
    finally:
        b.close()
    raw.update(busy_rounds_s=b.busy_rounds, metrics=metrics, problems=b.problems)
    (work / "result.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")

    for problem in b.problems[:10]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not b.problems,
                "attempted": b.attempted,
                "failed": b.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
