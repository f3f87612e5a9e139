"""What each README command imports.

The CLI core loads no library module; after parsing it loads the one
command module that runs, and that module loads only the library modules
it uses.  So --help loads the core alone, a command loads braidinv.floats
only when it prints a float column, and each library module loads only
for the commands that call it.  braidinv.inputs loads only for zmap and a
trace of a sequence file, json only for a JSON input (the renderers write
JSON and CSV themselves), and csv, dataclasses, inspect, mpmath and
__future__ never.  The core parses argv from its own flag table, so
argparse, and the gettext and locale it pulls in, never load.  Each
command runs in a fresh interpreter, so nothing another test imported can
hide an import, and its stdout must still match its golden.
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
                n in ("mpmath", "json", "csv", "dataclasses", "inspect",
                      "argparse", "gettext", "locale", "__future__"))
import json
print(json.dumps([code, loaded]), file=sys.stderr)
"""

CORE = {"braidinv", "braidinv.cli"}
# every command adds its own module, the commands package and render
ALWAYS = CORE | {"braidinv.commands", "braidinv.render"}
# what kontsevich and inverse_engine bring with them; the lift reads the
# ring's integer moments, not the integral
RING = {"braidinv.braid_ring", "braidinv.power_series"}
INTEGRAL = RING | {"braidinv.kontsevich"}
ENGINE = RING | {"braidinv.inverse_engine"}
# what a float column brings with it
FLOATS = {"braidinv.floats"}
# what reading a braid spec or a sequence file brings with it
INPUTS = {"braidinv.inputs"}

# README command -> what it loads beyond ALWAYS and its module, in every format
EXTRA = {
    "lift --order 13": ENGINE,
    "zmap --braid pair:2 --order 4": INTEGRAL | INPUTS,
    "qexpand --order 11": ENGINE,
    "qexpand --order 5 --power 2": ENGINE,
    "asymptotics --j 3 --orders 9,25,49": ENGINE | FLOATS,
    "beta --s 1": FLOATS | {"braidinv.regularization"},
    "beta --s 7": {"braidinv.regularization"},
    "basis --r 2 --entry 1,3": {"braidinv.basis_solver"},
    "basis --r 3 --solve-t": ENGINE | FLOATS | {"braidinv.basis_solver"},
    # the integral traces bring kontsevich back
    "trace --sequence tauhat --window 8":
        ENGINE | INTEGRAL | {"braidinv.convergence"},
    "reproduce": ENGINE | {"braidinv.basis_solver",
                           "braidinv.regularization"},
}
# no output format adds a module: json and csv load for none of them
FORMATS = ("text", "json", "csv")


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


def loads(command, *adds):
    """ALWAYS, the command's own module and whatever else it adds."""
    return ALWAYS.union({f"braidinv.commands.{command.split()[0]}"}, *adds)


@pytest.mark.parametrize("command", sorted(EXTRA))
def test_command_loads_only_what_it_uses(command):
    for fmt in FORMATS:
        key = f"{command} --format {fmt}"
        assert probe(key.split()) == \
            (0, loads(command, EXTRA[command]), read_golden(key)), key


def test_help_loads_the_core_alone():
    code, loaded, out = probe(["--help"])
    assert (code, loaded) == (0, CORE)
    assert out.startswith(b"usage: braidinv")


def test_usage_error_loads_the_core_alone():
    code, loaded, out = probe(["lift", "--order", "x"])
    assert (code, loaded, out) == (1, CORE, b"")


@pytest.mark.parametrize("tables, adds", [
    (["zeta2", "onefive"], {"braidinv.basis_solver"}),
    (["beta"], {"braidinv.regularization"}),
], ids=["zeta2-onefive", "beta"])
def test_reproduce_loads_only_its_tables(tables, adds):
    argv = ["reproduce"] + [arg for table in tables
                            for arg in ("--table", table)]
    code, loaded, out = probe(argv)
    assert (code, loaded) == (0, loads("reproduce", adds))
    assert out.count(b"PASS") > len(tables)


def test_json_braid_loads_json():
    argv = ["zmap", "--braid", '{"2": 1, "-2": -1}', "--order", "4"]
    assert probe(argv) == \
        (0, loads("zmap", INTEGRAL, INPUTS, {"json"}),
         read_golden("zmap --braid pair:2 --order 4 --format text"))


def test_sequence_file_trace_skips_the_engine(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"items": [{"1": 1}, {"1": 0.5}, {"1": "1/4"}]}',
                    encoding="utf-8")
    code, loaded, out = probe(["trace", "--sequence", str(path),
                               "--window", "3", "--format", "csv"])
    assert (code, loaded) == \
        (0, loads("trace", INTEGRAL, INPUTS,
                  {"braidinv.convergence", "json"}))
    assert b"insufficient" in out
