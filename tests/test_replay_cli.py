"""Each row of the end-to-end table in tests/replay_cli.py as a test, the
whole table under every other CPython 3.10-3.13 found here, and the rule
that only that table spawns the command line.

The rows of bad input run in tests/test_cli.py and the unwritable stdout
in tests/test_entry.py.  So do the README text rows and the help, which
keep their ids here too: the replay fixture runs a row once per session,
whichever test names it first.  Every other row runs here.
"""

import ast
import glob
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import replay_cli

# unwritable stdout rows that keep their ids here, though
# tests/test_entry.py runs them too
KEPT = {"stdout-closed", "stdout-full", "stdout-broken-pipe"}
ELSEWHERE = replay_cli.REFUSED + replay_cli.GUARDS + \
    [row for row in replay_cli.UNWRITABLE if row.name not in KEPT]
TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("row", [row for row in replay_cli.ROWS
                                 if row not in ELSEWHERE],
                         ids=lambda row: row.name)
def test_row(row, replay):
    replay(row.name)


def test_row_names_are_unique():
    # a test names a row, and the replay fixture runs each name once
    assert len(replay_cli.BY_NAME) == len(replay_cli.ROWS)


def test_only_the_table_spawns_the_command_line():
    # content runs in-process through cli.main; process behaviour is a row.
    # No other test file builds a list or tuple holding "-m", "braidinv"
    found = []
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py") and name != "replay_cli.py":
            with open(os.path.join(TESTS, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                items = [getattr(item, "value", None)
                         for item in getattr(node, "elts", ())]
                if any(items[i:i + 2] == "-m braidinv".split()
                       for i in range(len(items))):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def other_interpreters():
    """One interpreter that runs for each CPython 3.10-3.13 but this one,
    from $PYENV_ROOT/versions (~/.pyenv/versions by default), then from
    PATH: a {minor version: path} map, and the versions not found."""
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found, missing = {}, []
    for minor in sorted({10, 11, 12, 13} - {sys.version_info.minor}):
        name = f"python3.{minor}"
        candidates = sorted(glob.glob(
            os.path.join(root, "versions", f"3.{minor}.*", "bin", name)))
        for path in filter(None, [*candidates, shutil.which(name)]):
            try:  # a pyenv shim for a version it lacks exits nonzero
                subprocess.run([path, "-c", "import sys"], check=True,
                               capture_output=True, timeout=60)
            except (OSError, subprocess.SubprocessError):
                continue
            found[minor] = path
            break
        else:
            missing.append(f"3.{minor}")
    return found, missing


def replay_under(python):
    """The table run from the source tree by this interpreter, one row at a
    time."""
    return subprocess.run(
        [python, os.path.join(TESTS, "replay_cli.py")],
        env={**os.environ, "PYTHONPATH": os.path.join(TESTS, "..", "src")},
        capture_output=True, text=True, timeout=1800)


def test_the_table_passes_under_every_other_interpreter():
    found, missing = other_interpreters()
    print(f"CPython versions not found: {', '.join(missing) or 'none'}")
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = dict(zip(found, pool.map(replay_under, found.values())))
    for minor, run in sorted(runs.items()):
        last = run.stdout.splitlines()[-1] if run.stdout else ""
        assert re.fullmatch(rf"(\d+) of \1 rows pass under Python 3\.{minor}"
                            r"\.\d+\S*", last), run.stdout + run.stderr
        assert run.returncode == 0
