"""Independent answer checker for the benchmark.

Shares no code with ``choosable``: it reads the same JSON documents the
command line reads and writes, and checks answers from first principles.

* A colorable answer is checked as a coloring: every vertex gets exactly
  ``w(v)`` colors from ``L(v)``, adjacent vertices (the wrap edge of a cycle
  included) get disjoint sets, and a pinned vertex gets its forced set.
* A non-colorable answer is checked through its certificate ``(i, j,
  amplitude, demand)``: the Hall sum over ``i..j`` is recounted as the sum,
  over colors, of ``ceil(run / 2)`` for every maximal run of consecutive
  vertices carrying the color.  The recount must equal the reported
  amplitude and fall below the demand, which itself must equal the total
  weight of ``i..j``.  Hall's condition is necessary on every graph, so such
  a certificate proves non-colorability.  Certificates of pinned cycles
  refer to the path obtained by cutting the cycle at the pinned vertex and
  giving both ends the forced set.
* A ``waterfall`` answer must be in waterfall form (every color on at most
  two consecutive vertices) with the input's list sizes.
* Exit codes follow the command line's contract: 0 for colorable or valid,
  1 for not colorable or invalid.

Every ``check_*`` function returns a list of problems; an empty list means
the answer passed.
"""

from __future__ import annotations


def _ceil_half(run: int) -> int:
    return (run + 1) // 2


def cut_path(doc: dict) -> tuple[list[list[int]], list[int]]:
    """Lists and weights of the path a decision of ``doc`` speaks about.

    Paths speak for themselves.  A pinned cycle of length n is cut at its
    pinned vertex v0 into a path of n + 1 vertices whose two ends carry the
    forced set as their whole list.
    """
    lists, weights = doc["lists"], doc["weights"]
    forced = doc.get("forced")
    if forced is None:
        return lists, weights
    n, v0 = len(lists), forced["vertex"]
    order = [(v0 + k) % n for k in range(1, n)]
    return (
        [forced["colors"]] + [lists[v] for v in order] + [forced["colors"]],
        [weights[v0]] + [weights[v] for v in order] + [weights[v0]],
    )


def hall_sum(lists: list[list[int]], i: int, j: int) -> int:
    """Sum over colors of the independence number of their vertices in i..j."""
    total = 0
    runs: dict[int, int] = {}
    for v in range(i, j + 1):
        here = set(lists[v])
        for color in list(runs):
            if color not in here:
                total += _ceil_half(runs.pop(color))
        for color in here:
            runs[color] = runs.get(color, 0) + 1
    return total + sum(_ceil_half(run) for run in runs.values())


def check_coloring(doc: dict, coloring: list[list[int]]) -> list[str]:
    """Problems with ``coloring`` as a coloring of the instance ``doc``."""
    lists, weights = doc["lists"], doc["weights"]
    n = len(lists)
    if len(coloring) != n:
        return [f"coloring has {len(coloring)} entries for {n} vertices"]
    sets = [set(entry) for entry in coloring]
    problems = []
    for v in range(n):
        if len(coloring[v]) != len(sets[v]):
            problems.append(f"vertex {v} repeats a color")
        if len(sets[v]) != weights[v]:
            problems.append(f"vertex {v} gets {len(sets[v])} colors, weight {weights[v]}")
        if not sets[v] <= set(lists[v]):
            problems.append(f"vertex {v} uses colors outside its list")
    edges = [(v, v + 1) for v in range(n - 1)]
    if doc["graph"] == "cycle":
        edges.append((n - 1, 0))
    for u, v in edges:
        if sets[u] & sets[v]:
            problems.append(f"edge {u}-{v} shares colors {sorted(sets[u] & sets[v])}")
    forced = doc.get("forced")
    if forced is not None and sets[forced["vertex"]] != set(forced["colors"]):
        problems.append(f"pinned vertex {forced['vertex']} does not get its forced set")
    return problems


def check_certificate(doc: dict, cert: dict) -> list[str]:
    """Problems with ``cert`` as a proof that ``doc`` is not colorable."""
    lists, weights = cut_path(doc)
    i, j = cert["i"], cert["j"]
    if not 0 <= i <= j < len(lists):
        return [f"interval {i}..{j} out of range for {len(lists)} vertices"]
    recount = hall_sum(lists, i, j)
    demand = sum(weights[i : j + 1])
    problems = []
    if recount != cert["amplitude"]:
        problems.append(f"amplitude {cert['amplitude']} but the recount gives {recount}")
    if cert["demand"] != demand:
        problems.append(f"demand {cert['demand']} but the weights sum to {demand}")
    if recount >= demand:
        problems.append(f"recount {recount} reaches the demand {demand}: no violation")
    return problems


def check_decision(doc: dict, answer: dict) -> list[str]:
    """Problems with a ``decide`` answer: a coloring or a certificate."""
    if answer.get("colorable") is True:
        return check_coloring(doc, answer["coloring"])
    if answer.get("colorable") is False:
        return check_certificate(doc, answer["certificate"])
    return ['answer has no boolean "colorable" field']


def check_waterfall(doc: dict, answer: dict) -> list[str]:
    """Problems with a ``waterfall`` answer for the path instance ``doc``."""
    out = answer["lists"]
    if [len(set(entry)) for entry in out] != [len(set(entry)) for entry in doc["lists"]]:
        return ["list sizes changed"]
    seen: dict[int, list[int]] = {}
    for v, entry in enumerate(out):
        for color in entry:
            seen.setdefault(color, []).append(v)
    problems = []
    for color, where in seen.items():
        if len(where) > 2 or (len(where) == 2 and where[1] != where[0] + 1):
            problems.append(f"color {color} sits on vertices {where}")
    return problems


def check_exit_code(code: int, positive: bool) -> list[str]:
    """The command line exits 0 on colorable or valid, 1 otherwise."""
    want = 0 if positive else 1
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_expectation(expect: str | None, colorable: bool) -> list[str]:
    """Compare a verdict with what the instance's construction guarantees.

    ``"colorable"``: a planted coloring, or a pinned cycle at or above the
    free-choice threshold.  ``"not_colorable"``: a planted vertex pair whose
    lists' union is smaller than its weight, or a counterexample list.
    ``None``: the construction guarantees nothing.
    """
    if expect is None or (expect == "colorable") == colorable:
        return []
    return [f"expected {expect}, got colorable={colorable}"]

