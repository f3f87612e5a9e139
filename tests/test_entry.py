"""The process entry: `python -m braidinv` and the `braidinv` console script.

Both run braidinv.__main__.main, which runs the CLI, then the exit
handlers, flushes stdout and stderr and ends the process with os._exit,
skipping interpreter teardown.  cli.main never ends the process: it also
runs in-process, as in these tests.  Both entries are checked by rows of
tests/replay_cli.py: the module entry by the README text commands, the
exit codes and the unwritable stdout, and the console script by the same
rows run from a `-c` child that does what the generated script does.

An interrupt (Ctrl-C) during a request writes one `error: interrupted`
line and ends the process by SIGINT, so a shell sees status 130.

stdout that cannot be written is handled whatever its buffering: a closed
pipe exits 0 with nothing on stderr, and /dev/full exits 1 with one
`error:` line, whether the payload or the help fails on its write or on
its flush.  With fd 1 closed before the start there is no sys.stdout: the
payload and the help exit 1 with one `error:` line, and --out still
writes its file.
"""

import importlib
import os
import signal
import subprocess
import sys

import pytest

import replay_cli
from braidinv import __main__ as entry
from test_golden import DIGESTS, ROOT

# what the generated console script does with its target, the last item
SCRIPT = ("-c", """
import sys
from importlib import import_module
module, _, name = sys.argv.pop(1).partition(":")
sys.exit(getattr(import_module(module), name)())
""", "braidinv.__main__:main")
THROUGH = pytest.mark.parametrize("entry", [replay_cli.MODULE, SCRIPT],
                                  ids=["module", "script"])

# the entry with a request that the user interrupts, as Ctrl-C would
INTERRUPTED = """
import sys
from braidinv import __main__ as entry, cli

def interrupted(argv=None):
    raise KeyboardInterrupt

cli.main = interrupted
sys.exit(entry.main())
"""


@pytest.mark.parametrize("key", sorted(k for k in DIGESTS
                                       if k.endswith(" --format text")))
def test_readme_command_through_the_module_entry(key, replay):
    replay(key)


# the ids these cases have long had
@pytest.mark.parametrize("name", ["--help", "order-not-a-number",
                                  "entry-past-the-matrix"],
                         ids=["argv0-0", "argv1-1", "argv2-1"])
def test_module_entry_keeps_exit_codes(name, replay):
    replay(name)


def test_importing_the_entry_runs_nothing():
    # imported above, as the console script imports it; it must not have
    # exited or parsed the test runner's argv
    assert callable(entry.main)


def test_console_script_names_the_entry(replay):
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["braidinv"]
    assert target == SCRIPT[-1]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is entry.main
    replay("lift --order 13 --format text", entry=SCRIPT)


# a short payload stays in a buffered stdout until the flush; a long one is
# written through at once; the help is written by the parser
@pytest.mark.parametrize("size", ["help", "long", "short"])
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@THROUGH
def test_an_unwritable_stdout_is_handled(entry, unbuffered, size, replay):
    suffix = ("" if size == "short" else f"-{size}") + \
        ("-unbuffered" if unbuffered else "")
    replay(f"stdout-broken-pipe{suffix}", f"stdout-full{suffix}",
           entry=entry)


@THROUGH
def test_a_closed_stdout_is_one_error_line(entry, replay):
    replay("stdout-closed", "stdout-closed-help", "stdout-closed-out-file",
           entry=entry)


def test_an_interrupt_is_one_error_line_and_the_signal():
    result = subprocess.run([sys.executable, "-c", INTERRUPTED],
                            capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == \
        (-signal.SIGINT, b"", b"error: interrupted\n")
