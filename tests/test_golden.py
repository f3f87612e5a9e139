"""Stdout of every README command, in every format, against stored goldens.

Each golden under tests/golden/ is the stdout of one command; its name is
the command with runs of non-alphanumerics turned into underscores, and the
format as the suffix.  The commands are the keys of
bench/readme_digests.json, whose SHA-256 entries the goldens must match, so
a golden cannot be re-recorded to hide a change of output.
"""

import contextlib
import hashlib
import io
import os
import re

import pytest

from braidinv import cli
from replay_cli import DIGESTS, ROOT

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


def golden_name(key: str) -> str:
    cmd, fmt = key.rsplit(" --format ", 1)
    return re.sub(r"[^A-Za-z0-9]+", "_", cmd).strip("_") + "." + fmt


def read_golden(key: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, golden_name(key)), "rb") as handle:
        return handle.read()


def test_goldens_cover_the_digests_exactly():
    assert len(DIGESTS) == 33
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted(map(golden_name, DIGESTS))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_golden_matches_digest(key):
    assert hashlib.sha256(read_golden(key)).hexdigest() == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_readme_command_stdout_is_golden(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(key.split())
    assert code == 0
    assert out.getvalue().encode("utf-8") == read_golden(key)


@pytest.mark.parametrize("key", sorted(
    k for k in DIGESTS if k.startswith(("asymptotics", "beta --s 1 ",
                                        "basis --r 3 --solve-t "))))
def test_float_commands_read_no_precision_from_the_environment(
        key, monkeypatch):
    # --digits alone sets the precision; no environment variable does
    monkeypatch.setenv("BRAIDINV_FLOAT_DIGITS", "12")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(key.split()) == 0
    assert out.getvalue().encode("utf-8") == read_golden(key)
