"""The process entry: `python -m braidinv` and the `braidinv` console script.

Both run braidinv.__main__.main, which runs the CLI, then the exit
handlers, flushes stdout and stderr and ends the process with os._exit,
skipping interpreter teardown.  cli.main never ends the process: it also
runs in-process, as in these tests.  A child process runs the entry with
an atexit probe that reports the freeze count on the last line of stderr,
after the run's own output, so every run here also shows that the exit
handlers still run and that nothing froze the heap.

An interrupt (Ctrl-C) during a request writes one `error: interrupted`
line and ends the process by SIGINT, so a shell sees status 130.

stdout that cannot be written is handled whatever its buffering: a closed
pipe exits 0 with nothing on stderr, and /dev/full exits 1 with one
`error:` line, whether the payload or the help fails on its write or on
its flush.  With fd 1 closed before the start there is no sys.stdout: the
payload and the help exit 1 with one `error:` line, and --out still
writes its file.
"""

import gc
import importlib
import os
import signal
import subprocess
import sys

import pytest

from braidinv import __main__ as entry
from test_golden import DIGESTS, ROOT, read_golden

PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
"""
# the -m path: braidinv/__main__.py run as the __main__ module
AS_MODULE = PROBE + """
import runpy
runpy.run_module("braidinv", run_name="__main__", alter_sys=True)
"""
# what the generated console script does with its target
AS_SCRIPT = PROBE + """
from importlib import import_module
module, _, name = sys.argv.pop(1).partition(":")
sys.exit(getattr(import_module(module), name)())
"""

# the entry with a request that the user interrupts, as Ctrl-C would
INTERRUPTED = """
import sys
from braidinv import __main__ as entry, cli

def interrupted(argv=None):
    raise KeyboardInterrupt

cli.main = interrupted
sys.exit(entry.main())
"""


# spawn's stdout for a child whose fd 1 is closed before Python starts
CLOSED = "closed"


def spawn(script, argv, stdout=subprocess.PIPE, unbuffered=False):
    """Exit code, stdout, the stderr lines before the probe's and the freeze
    count at exit of one fresh run; stdout goes to a pipe unless a file
    descriptor or CLOSED is given."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    closed = stdout is CLOSED
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            stdout=None if closed else stdout,
                            stderr=subprocess.PIPE, env=env,
                            preexec_fn=(lambda: os.close(1)) if closed
                            else None)
    *errors, frozen = result.stderr.decode().splitlines()
    return result.returncode, result.stdout, errors, int(frozen)


@pytest.mark.parametrize("key", sorted(k for k in DIGESTS
                                       if k.endswith(" --format text")))
def test_readme_command_through_the_module_entry(key):
    code, out, _, frozen = spawn(AS_MODULE, key.split())
    assert (code, out) == (0, read_golden(key))
    assert frozen == 0


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["lift", "--order", "x"], 1),
    (["basis", "--r", "3", "--entry", "8,1"], 1),
])
def test_module_entry_keeps_exit_codes(argv, code):
    assert spawn(AS_MODULE, argv)[0] == code


def test_importing_the_entry_runs_nothing():
    # imported above, as the console script imports it; it must not have
    # exited or parsed the test runner's argv
    assert callable(entry.main)
    assert gc.get_freeze_count() == 0


def test_console_script_names_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["braidinv"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is entry.main
    key = "lift --order 13 --format text"
    code, out, _, frozen = spawn(AS_SCRIPT, [target, *key.split()])
    assert (code, out) == (0, read_golden(key))
    assert frozen == 0


# a short payload stays in a buffered stdout until the flush; a long one is
# written through at once; the help is written by the parser
@pytest.mark.parametrize("argv", [["lift", "--order", "13"],
                                  ["basis", "--r", "40"], ["--help"]],
                         ids=["short", "long", "help"])
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("script, prefix", [
    (AS_MODULE, []), (AS_SCRIPT, ["braidinv.__main__:main"])],
    ids=["module", "script"])
def test_an_unwritable_stdout_is_handled(script, prefix, unbuffered, argv):
    argv = prefix + argv
    reader, writer = os.pipe()
    os.close(reader)
    try:
        closed = spawn(script, argv, writer, unbuffered)
    finally:
        os.close(writer)
    assert closed[0] == 0 and closed[2] == []
    with open("/dev/full", "wb") as full:
        code, _, errors, frozen = spawn(script, argv, full, unbuffered)
    assert (code, errors) == (1, ["error: [Errno 28] No space left on device"])
    assert closed[3] == 0 and frozen == 0


@pytest.mark.parametrize("script, prefix", [
    (AS_MODULE, []), (AS_SCRIPT, ["braidinv.__main__:main"])],
    ids=["module", "script"])
def test_a_closed_stdout_is_one_error_line(script, prefix, tmp_path):
    for argv in (["lift", "--order", "5"], ["--help"]):
        code, _, errors, frozen = spawn(script, prefix + argv, CLOSED)
        assert (code, errors) == (1, ["error: standard output is closed"])
        assert frozen == 0
    # the file opened for --out may take fd 1 itself
    key, path = "lift --order 13 --format text", tmp_path / "out.txt"
    argv = prefix + key.split() + ["--out", str(path)]
    code, _, errors, _ = spawn(script, argv, CLOSED)
    assert (code, errors) == (0, [])
    assert path.read_bytes() == read_golden(key)


def test_an_interrupt_is_one_error_line_and_the_signal():
    result = subprocess.run([sys.executable, "-c", INTERRUPTED],
                            capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == \
        (-signal.SIGINT, b"", b"error: interrupted\n")
