"""Byte-identity of every subcommand in every output format.

``tests/golden/cli_formats.txt`` is a transcript: each ``$ fibquat ...`` line
is an invocation, followed by its stdout, then its stderr under ``[stderr]``
when there is any, then ``[exit N]``.  The test replays every invocation and
compares the whole transcript byte for byte.  ``binet`` is left out: its
floats come from the platform's libm.

This is the one pin of CLI bytes: a new output, or a new case of an old one,
adds an invocation line here, not a golden file or a test of its own.

Regenerate the file (only when an output change is intended) with
``PYTHONPATH=src python tests/test_cli_formats.py``.
"""

import io
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fibquat.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli_formats.txt"
PROMPT = "$ fibquat "


def commands():
    return [shlex.split(line[len(PROMPT):])
            for line in GOLDEN.read_text().splitlines() if line.startswith(PROMPT)]


def transcript(argvs):
    blocks = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        block = PROMPT + shlex.join(argv) + "\n" + out.getvalue()
        if err.getvalue():
            block += "[stderr]\n" + err.getvalue()
        blocks.append(block + f"[exit {code}]\n")
    return "".join(blocks)


def test_every_format_is_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    argvs = commands()
    assert len(argvs) > 100
    assert transcript(argvs) == GOLDEN.read_text()


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(transcript(commands()))
