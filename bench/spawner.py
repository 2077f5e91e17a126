"""Runs the benchmark's command-line processes and reports their peak memory.

The peak RSS the kernel reports for a child includes the memory of the
process it was forked from.  ``run.py`` holds the generated inputs, so a
child forked from it would report ``run.py``'s size whenever that is the
larger.  This process starts before the inputs exist and stays small: it
reads one JSON request a line on stdin, ``{"argv": [...], "timeout": s}``,
runs the command, and writes one JSON reply a line on stdout with the exit
code (``null`` on a timeout), the output, the wall time and the largest
peak RSS of any child so far.  It ends when stdin closes.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        start = perf_counter()
        try:
            proc = subprocess.run(
                request["argv"], capture_output=True, text=True, timeout=request["timeout"]
            )
            reply = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "stdout": "", "stderr": "timed out"}
        reply["elapsed"] = perf_counter() - start
        reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
