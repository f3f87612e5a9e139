"""Each row of the end-to-end table in tests/replay_cli.py as a test.

The rows of bad input run in tests/test_cli.py: replay_cli.REFUSED as
test_bad_input_exits_1_with_one_error_line and replay_cli.GUARDS as
test_the_digit_limit_holds_whatever_the_interpreter_allows.  Every other
row runs here.
"""

import pytest

import replay_cli


ELSEWHERE = replay_cli.REFUSED + replay_cli.GUARDS


@pytest.mark.parametrize("row", [row for row in replay_cli.ROWS
                                 if row not in ELSEWHERE],
                         ids=lambda row: row.name)
def test_row(row):
    replay_cli.check(row)
