"""Spans around the public functions of each ``choosable`` module.

``Tracer.install`` replaces each traced function, in every ``choosable``
module that binds it, by a wrapper that records a span: layer name, start,
end, parent span and the benchmark operation it belongs to.  Nothing under
``src/`` changes; the wrappers live here, and ``Tracer.uninstall`` puts
the originals back.  Spans stay in memory and are written out by
``Tracer.dump`` when the run ends.

A layer's self time is a span's duration minus the time its child spans
cover.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import gzip
import sys
import tracemalloc
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> layer.  Methods are given as "Class.method".
SPANS = (
    ("choosable.cli", "_read", "cli.parse"),
    ("choosable.cli", "parse_instance", "cli.parse"),
    ("choosable.cli", "_parse_coloring_document", "cli.parse"),
    ("choosable.cli", "cmd_decide", "cli.emit"),
    ("choosable.cli", "cmd_verify", "cli.emit"),
    ("choosable.cli", "cmd_waterfall", "cli.emit"),
    ("choosable.model", "Instance.__post_init__", "model.instance"),
    ("choosable.model", "validate_coloring", "model.validate"),
    ("choosable.model", "is_good", "model.validate"),
    ("choosable.model", "is_waterfall", "model.validate"),
    ("choosable.hall", "hall_check_path", "hall.scan"),
    ("choosable.hall", "construct_coloring_general", "hall.construct"),
    ("choosable.hall", "decide_waterfall", "hall.waterfall_decide"),
    ("choosable.hall", "decide_waterfall_prefix", "hall.waterfall_decide"),
    ("choosable.hall", "construct_coloring_waterfall", "hall.construct_waterfall"),
    ("choosable.waterfall", "to_waterfall", "waterfall.transform"),
    ("choosable.waterfall", "pull_back_coloring", "waterfall.pull_back"),
    ("choosable.cycles", "cycle_to_path", "cycles.reduce"),
    ("choosable.cycles", "solve_free_choice", "cycles.solve"),
    ("choosable.oracle", "brute_force", "oracle.search"),
    ("choosable.oracle", "brute_force_forced", "oracle.search"),
)
COUNTS = (
    ("choosable.model", "as_lists", "model.coerce_calls"),
    ("choosable.model", "as_weights", "model.coerce_calls"),
)

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "cli.parse_s": "s/round",
    "cli.emit_s": "s/round",
    "model.instance_s": "s/round",
    "model.validate_s": "s/round",
    "model.coerce_calls": "count/round",
    "model.validate_calls": "count/round",
    "hall.scan_s": "s/round",
    "hall.construct_good_s": "s/round",
    "hall.construct_nongood_s": "s/round",
    "hall.waterfall_decide_s": "s/round",
    "hall.construct_waterfall_s": "s/round",
    "waterfall.transform_s": "s/round",
    "waterfall.iterations": "count/round",
    "waterfall.pull_back_s": "s/round",
    "waterfall.pull_back_peak_mb": "MB",
    "cycles.reduce_s": "s/round",
    "cycles.solve_s": "s/round",
    "oracle.search_s": "s/round",
}


def _resolve(module: str, attr: str) -> tuple[object, str]:
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.op = 0
        # One column per span field; a small-batch run records about a
        # million spans, which tuples would hold in hundreds of megabytes.
        self._ids, self._parents, self._ops = array("q"), array("q"), array("q")
        self._layers, self._starts, self._ends = array("B"), array("d"), array("d")
        self._layer_names: list[str] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, child names]
        self._next_id = 1
        self._largest_pull_back: tuple[int, tuple] | None = None
        self._patches: list[tuple[object, str, object]] = []  # owner, name, original

    def _span(self, fn, layer: str):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, set()]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            name = layer
            if layer == "hall.construct":
                good = "waterfall.transform" in frame[1]
                name = "hall.construct_good" if good else "hall.construct_nongood"
            elif layer == "model.validate":
                self.counts["model.validate_calls"] += 1
            elif layer == "waterfall.transform":
                self.counts["waterfall.iterations"] += result[1].iterations
            elif layer == "waterfall.pull_back":
                self._remember_pull_back(args)
            if parent is not None:
                parent[1].add(name)
            self._record(span_id, parent[0] if parent else 0, name, start, end)
            return result

        return traced

    def _record(self, span_id: int, parent: int, name: str, start: float, end: float) -> None:
        if name not in self._layer_names:
            self._layer_names.append(name)
        self._ids.append(span_id)
        self._parents.append(parent)
        self._ops.append(self.op)
        self._layers.append(self._layer_names.index(name))
        self._starts.append(start)
        self._ends.append(end)

    def _count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _remember_pull_back(self, args: tuple) -> None:
        # Every caller passes (report, coloring, original_lists, weights).
        size = args[0].iterations + len(args[2])
        if self._largest_pull_back is None or size > self._largest_pull_back[0]:
            self._largest_pull_back = (size, args)

    def install(self) -> None:
        """Wrap every traced function wherever a ``choosable`` module binds it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "choosable"]
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name in table:
                owner, attr = _resolve(module, attr)
                fn = getattr(owner, attr)
                wrapped = wrap(fn, name)
                targets = [(owner, attr)] + [
                    (m, key) for m in modules for key, value in vars(m).items() if value is fn
                ]
                for target, key in targets:
                    self._patches.append((target, key, fn))
                    setattr(target, key, wrapped)

    def uninstall(self) -> None:
        """Put back every function ``install`` wrapped."""
        while self._patches:
            target, key, fn = self._patches.pop()
            setattr(target, key, fn)

    def self_times(self) -> dict[str, float]:
        """Sum of self times per layer over all recorded spans."""
        covered: defaultdict[int, float] = defaultdict(float)
        for parent, start, end in zip(self._parents, self._starts, self._ends):
            covered[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for span_id, layer, start, end in zip(self._ids, self._layers, self._starts, self._ends):
            totals[self._layer_names[layer]] += end - start - covered.get(span_id, 0.0)
        return totals

    def pull_back_peak_mb(self) -> float:
        """tracemalloc peak of the largest pull-back seen, replayed without wrappers."""
        if self._largest_pull_back is None:
            return 0.0
        args = self._largest_pull_back[1]
        tracemalloc.start()
        try:
            sys.modules["choosable.waterfall"].pull_back_coloring(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, per traced round, named as in LAYER_METRICS."""
        values = {f"{name}_s": total / rounds for name, total in self.self_times().items()}
        values.update({name: count / rounds for name, count in self.counts.items()})
        values["waterfall.pull_back_peak_mb"] = self.pull_back_peak_mb()
        return {name: values.get(name, 0.0) for name in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines: id, parent, op, layer, start, end."""
        columns = zip(self._ids, self._parents, self._ops, self._layers, self._starts, self._ends)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span_id, parent, op, layer, start, end in columns:
                out.write(
                    f"{span_id}\t{parent}\t{op}\t{self._layer_names[layer]}\t{start:.9f}\t{end:.9f}\n"
                )
