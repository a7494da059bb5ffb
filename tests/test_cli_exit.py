"""How a ``fibquat`` process ends.

``main()`` freezes the garbage collector once the output is flushed, so the
full collections CPython runs at shutdown skip every object the command left
alive.  ``run()`` and the library leave the collector alone.

The subprocess checks run in a fresh interpreter that inherits this process's
environment, so they hold whichever ``fibquat`` is on the path: the source
tree under ``PYTHONPATH=src``, or an installed wheel.  The dev-mode audit must
print what ``run()`` prints in-process, whose bytes the transcript
``tests/golden/cli_formats.txt`` pins.
"""

import gc
import subprocess
import sys

import pytest

from fibquat.cli import run

AUDIT_ALL = ["audit", "--all", "--format", "json", "--no-timing"]
BY_CODE = [
    pytest.param(AUDIT_ALL, 0, id="exit-0"),
    pytest.param(["audit", "--id", "SWAMY_AS_STATED"], 1, id="exit-1"),
    pytest.param(["audit", "--no-such-flag"], 2, id="exit-2"),
]

# the hook runs after main() has called sys.exit, before the shutdown collections
PROBE = """
import atexit, gc
import fibquat.cli
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
fibquat.cli.main()
"""


def test_dev_mode_audit_is_golden_and_quiet(capsys):
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "fibquat.cli", *AUDIT_ALL],
        capture_output=True,
    )
    assert done.stderr == b""
    assert done.returncode == 0
    assert run(AUDIT_ALL) == 0
    assert done.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv, code", BY_CODE)
def test_main_freezes_the_collector_before_exit(argv, code):
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-1] == "frozen True"


@pytest.mark.parametrize("argv, code", BY_CODE)
def test_run_leaves_the_collector_alone(capsys, argv, code):
    frozen = gc.get_freeze_count()
    assert run(argv) == code
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()
