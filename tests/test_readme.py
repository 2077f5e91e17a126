"""The README's examples run as shown.

The command-line session runs in a fresh directory, one shell command at a
time, with ``choosable`` standing for ``python -m choosable`` on this
checkout; each command's stdout must match the lines shown under it byte
for byte, where a shown line that starts with a space continues the line
above it.  The first JSON block is the session's ``path.json``.  The
library example runs as it stands.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def session():
    """(command, shown stdout) for each ``$`` line of the README's session."""
    (text,) = [body for lang, body in BLOCKS if body.startswith("$ ")]
    steps = []
    for line in text.splitlines():
        if line.startswith("$ "):
            steps.append([line[2:], ""])
        elif line.startswith(" "):
            steps[-1][1] = steps[-1][1][:-1] + line + "\n"
        elif line:
            steps[-1][1] += line + "\n"
    return steps


def test_session_output_is_shown_as_printed(tmp_path):
    (tmp_path / "path.json").write_text(
        next(body for lang, body in BLOCKS if lang == "json"), encoding="utf-8"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    program = f"{shlex.quote(sys.executable)} -m choosable"
    steps = session()
    assert len(steps) == 8
    for command, shown in steps:
        run = subprocess.run(
            re.sub(r"(?:^|(?<=\s))choosable(?=\s)", lambda _: program, command),
            shell=True,
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert (run.stdout, run.stderr) == (shown, ""), command


def test_library_example_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
