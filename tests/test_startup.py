"""What each README command imports.

A command loads mpmath only when it prints a float column, and loads each
of basis_solver, convergence and regularization only when it uses it.
Each command runs in a fresh interpreter, so nothing another test imported
can hide an import, and its stdout must still match its text golden.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden import DIGESTS, read_golden

SCRIPT = """
import json, sys
from braidinv import cli
code = cli.main(sys.argv[1:])
loaded = [n for n in sys.modules if n == "mpmath" or n.startswith("braidinv")]
print(json.dumps([code, sorted(loaded)]), file=sys.stderr)
"""

ALWAYS = {"braidinv", "braidinv.cli", "braidinv.braid_ring",
          "braidinv.inverse_engine", "braidinv.kontsevich",
          "braidinv.power_series", "braidinv.render"}

# README command -> what it loads beyond ALWAYS
EXTRA = {
    "lift --order 13": set(),
    "zmap --braid pair:2 --order 4": set(),
    "qexpand --order 11": set(),
    "qexpand --order 5 --power 2": set(),
    "asymptotics --j 3 --orders 9,25,49": {"mpmath"},
    "beta --s 1": {"mpmath", "braidinv.regularization"},
    "beta --s 7": {"braidinv.regularization"},
    "basis --r 2 --entry 1,3": {"braidinv.basis_solver"},
    "basis --r 3 --solve-t": {"mpmath", "braidinv.basis_solver"},
    "trace --sequence tauhat --window 8": {"braidinv.convergence"},
    "reproduce": {"braidinv.basis_solver", "braidinv.regularization"},
}


def test_every_readme_command_is_listed():
    assert {key.rsplit(" --format ", 1)[0] for key in DIGESTS} == set(EXTRA)


@pytest.mark.parametrize("command", sorted(EXTRA))
def test_command_loads_only_what_it_uses(command):
    env = dict(os.environ)
    env.pop("BRAIDINV_FLOAT_DIGITS", None)
    result = subprocess.run([sys.executable, "-c", SCRIPT, *command.split()],
                            capture_output=True, env=env)
    code, loaded = json.loads(result.stderr.decode().splitlines()[-1])
    assert code == 0
    assert set(loaded) == ALWAYS | EXTRA[command]
    assert result.stdout == read_golden(command + " --format text")
