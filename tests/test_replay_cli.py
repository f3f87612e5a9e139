"""Each row of the end-to-end table in tests/replay_cli.py as a test, and
the rule that only that table spawns the command line.

The rows of bad input run in tests/test_cli.py and the unwritable stdout
in tests/test_entry.py.  So do the README text rows and the help, which
keep their ids here too: the replay fixture runs a row once per session,
whichever test names it first.  Every other row runs here.
"""

import ast
import os

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
