"""The host's speed during a run, read from a fixed piece of pure-Python work.

The benchmark host is shared, and its speed for one process drifts over
minutes by up to about 1.6 times, moving every timing of a run together
(see README.md).  ``reading`` times a fixed kernel that does not use
``choosable``; ``run.py`` takes readings between operations throughout a
run, and divides the run's timings by the square root of the median
reading over ``PACE_REF_S``, so that a run on a slow stretch of the host
reads much as one on a fast stretch.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# The median reading on the reference machine while it was quiet (Python
# 3.11.7 on a virtual core of an Intel Xeon).  On a host running at that
# speed, scaled figures are the figures as measured.
PACE_REF_S = 0.0056

_TEXT = json.dumps({"weights": [2] * 120, "lists": [[(i * 7 + k) % 13 for k in range(4)] for i in range(120)]})


def kernel() -> int:
    """The program's kind of work: JSON, small sets, dicts of lists, sorting."""
    lists = [frozenset(entry) for entry in json.loads(_TEXT)["lists"]]
    total = 0
    for _ in range(25):
        for left, right in zip(lists, lists[1:]):
            total += len(left & right) + len(left | right)
        runs: dict[int, list[int]] = {}
        for i, entry in enumerate(lists):
            for color in entry:
                runs.setdefault(color, []).append(i)
        total += sum(len(v) for v in runs.values())
        total += len(json.dumps([sorted(entry, reverse=True) for entry in lists]))
    return total


def reading() -> float:
    """Wall time of one kernel pass, the median of three."""
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
