"""Command-line interface: JSON instances in, JSON decisions out.

Instance documents look like::

    {"graph": "path", "weights": [1, 1], "lists": [[1, 2], [2, 3]]}
    {"graph": "cycle", "weights": [2, 2, 2, 2],
     "lists": [[1, 2, 3, 4], [1, 2, 3, 4], [3, 4, 5, 6], [1, 2, 5, 6]],
     "forced": {"vertex": 0, "colors": [1, 2]}}

A pinned-cycle certificate from ``decide`` indexes the path cut at the pinned
vertex v0: path vertex p is cycle vertex (v0 + p) mod n, and n is v0 again.

The command line checks a document's shape alone: JSON, required fields,
and objects and arrays where they belong (a ``ParseError``).  Colors,
weights and the pinned vertex go to the model as decoded, to be checked once.

Exit codes: 0 colorable (or valid, or true), 1 not colorable (invalid,
false), 2 input error, 3 internal error: a violated invariant or any other
bug.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import chain, islice
from typing import Any, Iterable

# Each command imports the modules it runs in its body, so a process
# compiles only what its command needs.
from .model import (
    BudgetExceededError,
    Certificate,
    Decision,
    FreeChoiceInstance,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    SearchBudget,
    _CYCLE,
    _PATH,
    _check_good,
    _int_at_least,
    as_lists,
    validate_coloring,
)


class ParseError(InvalidInputError):
    """The document is not well-formed against the schema."""


def _load_json(text: str | bytes) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer too long to convert, or bytes not UTF-8
        raise ParseError(f"invalid JSON: {exc}") from None


def _require(doc: dict, field: str, where: str = "document") -> Any:
    if field not in doc:
        raise ParseError(f'missing field "{field}" in {where}')
    return doc[field]


def _int_value(value: Any, field: str) -> int:
    return _int_at_least(value, 0, f'field "{field}" must be a non-negative integer', ParseError)


def _array(values: Any, field: str) -> list:
    if not isinstance(values, list):
        raise ParseError(f'field "{field}" must be an array')
    return values


def _arrays(values: Any, field: str) -> list[list]:
    """``values`` if an array of arrays: the model would read ``{}`` or ``""`` as a list."""
    for i, entry in enumerate(_array(values, field)):
        _array(entry, f"{field}[{i}]")
    return values


def parse_instance(text: str | bytes) -> Instance | FreeChoiceInstance:
    """Parse an instance document; cycle documents with "forced" pin a vertex.

    The document's shape is checked here; its colors, weights and pinned
    vertex go to ``Instance`` and ``FreeChoiceInstance`` as decoded.
    Duplicate colors inside one list are dropped with a warning.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")

    graph = _require(doc, "graph")
    if graph not in ("path", "cycle"):
        raise ParseError(f'field "graph" must be "path" or "cycle", got {graph!r}')
    weights = _array(_require(doc, "weights"), "weights")
    lists = _arrays(_require(doc, "lists"), "lists")
    topology = _PATH if graph == "path" else _CYCLE
    inst = Instance(topology, weights, lists)
    for i, (colors, entry) in enumerate(zip(inst.lists, lists)):
        if len(colors) != len(entry):
            warnings.warn(f"duplicate colors removed from list {i}", stacklevel=2)

    if "forced" not in doc:
        return inst
    forced_doc = doc["forced"]
    if not isinstance(forced_doc, dict):
        raise ParseError('field "forced" must be an object')
    vertex = _require(forced_doc, "vertex", '"forced"')
    colors = _array(_require(forced_doc, "colors", '"forced"'), "forced.colors")
    return FreeChoiceInstance(inst, vertex, colors)


def emit_instance(obj: Instance | FreeChoiceInstance) -> str:
    """Serialize an instance back into the document schema."""
    if isinstance(obj, FreeChoiceInstance):
        inst = obj.cycle
        forced = {"vertex": obj.v0, "colors": sorted(obj.forced)}
    else:
        inst = obj
        forced = None
    doc: dict[str, Any] = {
        "graph": inst.topology.value,
        "weights": list(inst.weights),
        "lists": [sorted(entry) for entry in inst.lists],
    }
    if forced is not None:
        doc["forced"] = forced
    return json.dumps(doc)


def emit_decision(decision: Decision) -> str:
    """Serialize a decision; byte-stable for equal inputs."""
    if decision.colorable:
        doc: dict[str, Any] = {
            "colorable": True,
            "coloring": [sorted(entry) for entry in decision.coloring],
        }
    else:
        cert = decision.certificate
        doc = {
            "colorable": False,
            "certificate": {
                "i": cert.i,
                "j": cert.j,
                "amplitude": cert.amplitude_size,
                "demand": cert.demand,
            },
        }
    return json.dumps(doc)


def parse_decision(text: str | bytes) -> Decision:
    """Inverse of ``emit_decision``."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    colorable = _require(doc, "colorable")
    if not isinstance(colorable, bool):
        raise ParseError('field "colorable" must be a boolean')
    if colorable:
        coloring = _arrays(_require(doc, "coloring"), "coloring")
        return Decision(True, coloring=as_lists(coloring))
    cert = _require(doc, "certificate")
    if not isinstance(cert, dict):
        raise ParseError('field "certificate" must be an object')
    fields = ("i", "j", "amplitude", "demand")
    return Decision(
        False,
        certificate=Certificate(
            *(_int_value(_require(cert, k, '"certificate"'), f"certificate.{k}") for k in fields)
        ),
    )


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _parse_coloring_document(text: str) -> list[list]:
    """The arrays of a bare array, {"coloring": ...} or a decision document, as decoded."""
    doc = _load_json(text)
    if isinstance(doc, dict):
        if "coloring" not in doc:
            raise ParseError('coloring document must contain a "coloring" field')
        doc = doc["coloring"]
    if not isinstance(doc, list):
        raise ParseError("coloring must be an array of color arrays")
    return _arrays(doc, "coloring")


def cmd_decide(args: argparse.Namespace) -> int:
    obj = parse_instance(_read(args.file))
    if isinstance(obj, FreeChoiceInstance):
        from .cycles import solve_free_choice

        decision = solve_free_choice(obj)
    elif obj.topology is _PATH:
        from .hall import _decide

        decision = _decide(obj)
    else:
        raise InvalidInputError(
            'deciding a cycle needs a "forced" choice; use the oracle subcommand '
            "for plain cycle instances"
        )
    del obj  # the decision is all that is written
    print(emit_decision(decision))
    return 0 if decision.colorable else 1


_EVENT = '{"old": %d, "new": %d, "start": %d, "end": %d}'


def _ints(values: Iterable[int]) -> str:
    """A JSON array of ints, as ``json.dumps`` writes it."""
    return "[" + ", ".join(map(str, values)) + "]"


# Array items per write in ``cmd_waterfall``, so that no string it writes
# grows with the path.
_CHUNK = 4096


def _write_items(write, items: Iterable[str]) -> None:
    """Write ``items`` joined by ", ", at most ``_CHUNK`` of them at a time."""
    items = iter(items)
    sep = ""
    while chunk := ", ".join(islice(items, _CHUNK)):
        write(sep + chunk)
        sep = ", "


def cmd_waterfall(args: argparse.Namespace) -> int:
    from .waterfall import _runs, _stages

    obj = parse_instance(_read(args.file))
    if isinstance(obj, FreeChoiceInstance) or obj.topology is not _PATH:
        raise InvalidInputError("the waterfall transform applies to path instances")
    _check_good(obj.lists, obj.weights)
    m = obj.n_vertices
    runs = _runs(obj.lists)
    del obj  # the stages read the runs alone
    lists, report = _stages(runs, m)
    # All that can fail is done, so stdout gets the whole document or
    # nothing.  Each array is written a chunk of items at a time, with no
    # dict per event and no token list from json, so what is held besides
    # the labels and the report is bounded whatever the path's length.
    # Fresh labels are issued by one counter, stage 1's before stage 3's,
    # so their issue order is ascending.  Every value is an int, so the
    # bytes are those of json.dumps with its default separators.
    write = sys.stdout.write
    write('{"lists": [')
    _write_items(write, (_ints(sorted(labels)) for labels in lists))
    write('], "report": {"run_renames": [')
    _write_items(write, (_EVENT % e for e in report.run_renames))
    write('], "relabel_map": [')
    _write_items(write, ("[%d, %d]" % p for p in sorted(report.relabel_map)))
    write('], "replacements": [')
    _write_items(write, (_EVENT % e for e in report.replacements))
    write('], "fresh_colors": [')
    fresh = chain(report.run_renames, report.replacements)
    _write_items(write, ("%d" % new for _, new, _, _ in fresh))
    write('], "iterations": %d}}\n' % report.iterations)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force, brute_force_forced

    obj = parse_instance(_read(args.file))
    budget = SearchBudget(args.budget)
    if isinstance(obj, FreeChoiceInstance):
        decision = brute_force_forced(obj, budget)
    else:
        decision = brute_force(obj, budget)
    print(emit_decision(decision))
    return 0 if decision.colorable else 1


def cmd_verify(args: argparse.Namespace) -> int:
    obj = parse_instance(_read(args.instance))
    coloring = _parse_coloring_document(_read(args.coloring))
    if isinstance(obj, FreeChoiceInstance):
        ok = (
            validate_coloring(obj.cycle, coloring)
            and frozenset(coloring[obj.v0]) == obj.forced
        )
    else:
        ok = validate_coloring(obj, coloring)
    print(json.dumps({"valid": ok}))
    return 0 if ok else 1


def cmd_fchr(args: argparse.Namespace) -> int:
    from .cycles import fchr

    value = fchr(args.n)
    print(json.dumps({"n": args.n, "fchr": {"num": value.numerator, "den": value.denominator}}))
    return 0


def cmd_free_choosable(args: argparse.Namespace) -> int:
    from .cycles import is_free_choosable

    answer = is_free_choosable(args.a, args.b, args.n)
    print(json.dumps({"a": args.a, "b": args.b, "n": args.n, "free_choosable": answer}))
    return 0 if answer else 1


def cmd_counterexample(args: argparse.Namespace) -> int:
    from .cycles import counterexample_list

    print(emit_instance(counterexample_list(args.a, args.b, args.n)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choosable",
        description="List multicoloring of weighted paths and free-choosability of cycles.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an instance (path or forced cycle)")
    p.add_argument("file", help="instance document, or - for stdin")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("waterfall", help="transform a good path list to waterfall form")
    p.add_argument("file")
    p.set_defaults(func=cmd_waterfall)

    p = sub.add_parser("oracle", help="decide by exhaustive search")
    p.add_argument("file")
    p.add_argument(
        "--budget",
        type=int,
        default=SearchBudget().max_nodes,
        help="search node cap (default %(default)s)",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a coloring against an instance")
    p.add_argument("instance")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fchr", help="free-choice ratio of the cycle of length n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_fchr)

    p = sub.add_parser("free-choosable", help="is the cycle of length n (a, b)-free-choosable")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_free_choosable)

    p = sub.add_parser("counterexample", help="emit a counterexample cycle instance")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_counterexample)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one stable line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if args.quiet else "default")
            warnings.showwarning = _show_warning
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not an answer: never exit 1 for it
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
