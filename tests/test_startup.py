"""What each README command imports.

A command loads mpmath only when it prints a float column, and loads each
of basis_solver, convergence and regularization only when it uses it.
json loads only for --format json or a JSON input, csv only for
--format csv, and dataclasses and inspect never (mpmath loads neither).
Each command runs in a fresh interpreter, so nothing another test imported
can hide an import, and its stdout must still match its golden.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden import DIGESTS, read_golden

# sys.modules is read before the probe imports json for its own report
SCRIPT = """
import sys
from braidinv import cli
code = cli.main(sys.argv[1:])
loaded = sorted(n for n in sys.modules if n.startswith("braidinv") or
                n in ("mpmath", "json", "csv", "dataclasses", "inspect"))
import json
print(json.dumps([code, loaded]), file=sys.stderr)
"""

ALWAYS = {"braidinv", "braidinv.cli", "braidinv.braid_ring",
          "braidinv.inverse_engine", "braidinv.kontsevich",
          "braidinv.power_series", "braidinv.render"}

# README command -> what it loads beyond ALWAYS in text format
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
# output format -> what it adds
FORMAT = {"text": set(), "json": {"json"}, "csv": {"csv"}}


def probe(argv):
    """Exit code, loaded watched modules and stdout of one fresh run."""
    env = dict(os.environ)
    env.pop("BRAIDINV_FLOAT_DIGITS", None)
    result = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                            capture_output=True, env=env)
    code, loaded = json.loads(result.stderr.decode().splitlines()[-1])
    return code, set(loaded), result.stdout


def test_every_readme_command_is_listed():
    assert {key.rsplit(" --format ", 1)[0] for key in DIGESTS} == set(EXTRA)


@pytest.mark.parametrize("command", sorted(EXTRA))
def test_command_loads_only_what_it_uses(command):
    for fmt, adds in FORMAT.items():
        key = f"{command} --format {fmt}"
        assert probe(key.split()) == \
            (0, ALWAYS | EXTRA[command] | adds, read_golden(key)), key


def test_json_braid_loads_json():
    argv = ["zmap", "--braid", '{"2": 1, "-2": -1}', "--order", "4"]
    assert probe(argv) == \
        (0, ALWAYS | {"json"},
         read_golden("zmap --braid pair:2 --order 4 --format text"))
