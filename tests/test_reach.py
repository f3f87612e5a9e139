"""Every function and method in src/braidinv, the command modules included,
runs in some CLI invocation.

The invocations below go through cli.main in-process, and --help once
through the process entry __main__.main with the exit handlers made a
no-op and os._exit raising SystemExit, while sys.setprofile records each
code object that starts running.  A function that none of them reaches
is test-only or dead code and belongs in tests/ or nowhere; the one
exception is __repr__, which serves debugging and test failure messages.
"""

import atexit
import contextlib
import inspect
import io
import json
import os
import sys

import pytest

from braidinv import __main__ as entry, cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "braidinv")

with open(os.path.join(ROOT, "bench", "readme_digests.json"),
          encoding="utf-8") as _handle:
    README = [key.split() for key in json.load(_handle)]

EXTRA = [
    ["lift", "--order", "7", "--method", "reversion"],
    ["basis", "--r", "2", "--unbalanced", "--with-factorials"],
    ["trace", "--sequence", "pairs", "--window", "4"],
    ["trace", "--sequence", "harmonic", "--window", "4"],
    ["trace", "--sequence", "{tmp}/seq.json", "--window", "3"],
    ["zmap", "--order", "2"],
    ["zmap", "--braid", "e", "--order", "2"],
    ["zmap", "--braid", "sigma", "--order", "2"],
    ["zmap", "--braid", "sigmabar", "--order", "2"],
    ["zmap", "--braid", "sigma^3", "--order", "2"],
    ["lift", "--order", "x"],
    ["--help"],
]


def defined_functions():
    """(file, first line, name) of every def under src/braidinv and its
    subpackages."""
    found = set()
    paths = [os.path.realpath(os.path.join(folder, name))
             for folder, _, names in os.walk(PACKAGE)
             for name in names if name.endswith(".py")]
    for path in sorted(paths):
        with open(path, encoding="utf-8") as handle:
            stack = [compile(handle.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            # module and class bodies are not optimized; comprehensions
            # and lambdas have names in angle brackets
            if code.co_flags & inspect.CO_OPTIMIZED and \
                    not code.co_name.startswith("<"):
                found.add((path, code.co_firstlineno, code.co_name))
    return found


def ending(code):
    raise SystemExit(code)


def test_every_function_runs_in_some_command(tmp_path, monkeypatch):
    (tmp_path / "seq.json").write_text(
        '{"label": "file", "items": [{"1": 1}, {"1": 0.5}, {"1": "1/4"}]}',
        encoding="utf-8")
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in README + EXTRA:
            argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        # the real exit handlers and os._exit would end the session
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)
        monkeypatch.setattr(os, "_exit", ending)
        monkeypatch.setattr(sys, "argv", ["braidinv", "--help"])
        with contextlib.redirect_stdout(io.StringIO()), \
                pytest.raises(SystemExit, match="^0$"):
            entry.main()
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
               for c in started}
    missed = sorted(f"{os.path.relpath(path, ROOT)}:{line} {name}"
                    for path, line, name in defined_functions() - reached
                    if name != "__repr__")
    assert not missed, "no command runs: " + ", ".join(missed)
