"""What a cold ``fibquat`` process loads before it does any work.

The check runs in a fresh interpreter that inherits this process's
environment, so it holds whichever ``fibquat`` is on the path: the source
tree under ``PYTHONPATH=src``, or an installed wheel.
"""

import subprocess
import sys

# heavy modules the CLI must not load at import: dataclasses pulls in inspect,
# ast, dis and tokenize, and csv is needed by --format csv alone
NOT_AT_IMPORT = ("dataclasses", "inspect", "csv")

PROBE = f"""
import sys
before = set(sys.modules)
import fibquat.cli
print(" ".join(sorted((set(sys.modules) - before) & set({NOT_AT_IMPORT!r}))))
"""


def test_cli_import_loads_no_heavy_modules():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
