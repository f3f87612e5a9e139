"""What each README command imports, and how much of it runs.

The CLI core loads no library module; after parsing it loads the one
command module that runs, and that module loads only the library modules
it uses.  So --help and a usage error load the core and the help writer
alone, a command loads braidinv.floats only when it prints a float column,
and each library module loads only for the commands that call it.  The
JSON and CSV writers load only for their format.  braidinv.inputs loads
only for a JSON braid and a trace of a sequence file, braidinv.sequences
only for a trace of a stock sequence, json only for a JSON input (the
writers write JSON and CSV themselves), and csv, dataclasses, inspect,
mpmath and __future__ never.  The core parses argv from its own flag
table, so argparse, and the gettext and locale it pulls in, never load.
Each command runs in a fresh interpreter, so nothing another test imported
can hide an import, and its stdout must still match its golden.

Where no bytecode cache is written, every function of every module a
request loads is compiled, whether it runs or not.  The same runs bound the
share of that bytecode which never runs: for every README command in every
format, and for a trace of a sequence file.
"""

import json
import subprocess
import sys

import pytest

from test_golden import DIGESTS, read_golden

# sys.modules is read before the probe imports json for its own report.  A
# code object ran if a profile call event saw it; each braidinv module
# loaded is compiled again from its file, and the bytecode (co_code) of the
# code objects that never ran is counted against the whole
SCRIPT = """
import sys

def key(code):
    return (code.co_filename, code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name))

ran = set()
sys.setprofile(lambda frame, event, arg:
               event == "call" and ran.add(key(frame.f_code)))
from braidinv import cli
code = cli.main(sys.argv[1:])
sys.setprofile(None)
loaded = sorted(n for n in sys.modules if n.startswith("braidinv") or
                n in ("mpmath", "json", "csv", "dataclasses", "inspect",
                      "argparse", "gettext", "locale", "__future__"))

def walk(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from walk(const)

total = unrun = 0
for name in loaded:
    path = getattr(sys.modules[name], "__file__", None)
    if name.startswith("braidinv") and path:
        with open(path, encoding="utf-8") as handle:
            for each in walk(compile(handle.read(), path, "exec")):
                total += len(each.co_code)
                unrun += len(each.co_code) * (key(each) not in ran)
import json
print(json.dumps([code, loaded, unrun / total]), file=sys.stderr)
"""

CORE = {"braidinv", "braidinv.cli"}
# what --help and a usage error add
USAGE = CORE | {"braidinv.usage"}
# every command adds its own module, the commands package and render
ALWAYS = CORE | {"braidinv.commands", "braidinv.render"}
# what kontsevich, inverse_engine and pair_expansions bring with them: the
# lift solve reads the seed's integers, and the expansions are certified on
# the ring's integer moments, not on the integral
RING = {"braidinv.braid_ring", "braidinv.power_series"}
INTEGRAL = RING | {"braidinv.kontsevich"}
ENGINE = RING | {"braidinv.inverse_engine"}
EXPANSIONS = RING | {"braidinv.pair_expansions"}
# what a float column brings with it
FLOATS = {"braidinv.floats"}
# what reading a JSON braid or a sequence file brings with it
INPUTS = {"braidinv.inputs"}

# README command -> what it loads beyond ALWAYS and its module, in every format
EXTRA = {
    "lift --order 13": ENGINE,
    "zmap --braid pair:2 --order 4": INTEGRAL,
    "qexpand --order 11": EXPANSIONS,
    "qexpand --order 5 --power 2": EXPANSIONS,
    "asymptotics --j 3 --orders 9,25,49": EXPANSIONS | FLOATS,
    "beta --s 1": FLOATS | {"braidinv.regularization"},
    "beta --s 7": {"braidinv.regularization"},
    "basis --r 2 --entry 1,3": {"braidinv.basis_solver"},
    "basis --r 3 --solve-t": EXPANSIONS | FLOATS | {"braidinv.basis_solver"},
    # the integral traces bring kontsevich back
    "trace --sequence tauhat --window 8":
        EXPANSIONS | INTEGRAL | {"braidinv.convergence", "braidinv.sequences"},
    "reproduce": ENGINE | EXPANSIONS | {"braidinv.basis_solver",
                                        "braidinv.regularization"},
}
# format -> the writer module it adds, as render lays out text itself; the
# json and csv modules load for none of them
FORMATS = {"text": set(), "json": {"braidinv.json_document"},
           "csv": {"braidinv.csv_document"}}


# the most of the braidinv bytecode a request compiles that may never run:
# any README command in any format (lift, which reads only the seed's
# integers from the braid ring, runs the least of it), and a trace of a
# sequence file, which the trace-wide bench workload runs most
README_UNRUN = 0.33
FILE_TRACE_UNRUN = 0.25


def probe(argv):
    """Exit code, loaded watched modules, stdout and the share of compiled
    braidinv bytecode that never ran, of one fresh run."""
    result = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                            capture_output=True)
    code, loaded, unrun = json.loads(result.stderr.decode().splitlines()[-1])
    return code, set(loaded), result.stdout, unrun


def test_every_readme_command_is_listed():
    assert {key.rsplit(" --format ", 1)[0] for key in DIGESTS} == set(EXTRA)


def loads(command, *adds):
    """ALWAYS, the command's own module and whatever else it adds."""
    return ALWAYS.union({f"braidinv.commands.{command.split()[0]}"}, *adds)


@pytest.mark.parametrize("command", sorted(EXTRA))
def test_command_loads_only_what_it_uses(command):
    for fmt, writer in FORMATS.items():
        key = f"{command} --format {fmt}"
        *run, unrun = probe(key.split())
        assert run == [0, loads(command, EXTRA[command], writer),
                       read_golden(key)], key
        assert unrun <= README_UNRUN, key


def test_help_loads_the_core_and_the_help_writer():
    code, loaded, out, _ = probe(["--help"])
    assert (code, loaded) == (0, USAGE)
    assert out.startswith(b"usage: braidinv")


def test_usage_error_loads_the_core_and_the_help_writer():
    code, loaded, out, _ = probe(["lift", "--order", "x"])
    assert (code, loaded, out) == (1, USAGE, b"")


@pytest.mark.parametrize("tables, adds", [
    (["zeta2", "onefive"], {"braidinv.basis_solver"}),
    (["beta"], {"braidinv.regularization"}),
], ids=["zeta2-onefive", "beta"])
def test_reproduce_loads_only_its_tables(tables, adds):
    argv = ["reproduce"] + [arg for table in tables
                            for arg in ("--table", table)]
    code, loaded, out, _ = probe(argv)
    assert (code, loaded) == (0, loads("reproduce", adds))
    assert out.count(b"PASS") > len(tables)


def test_json_braid_loads_json():
    argv = ["zmap", "--braid", '{"2": 1, "-2": -1}', "--order", "4"]
    assert probe(argv)[:3] == \
        (0, loads("zmap", INTEGRAL, INPUTS, {"json"}),
         read_golden("zmap --braid pair:2 --order 4 --format text"))


def test_sequence_file_trace_skips_the_engine(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"items": [{"1": 1}, {"1": 0.5}, {"1": "1/4"}]}',
                    encoding="utf-8")
    code, loaded, out, unrun = probe(["trace", "--sequence", str(path),
                                      "--window", "3", "--format", "csv"])
    assert (code, loaded) == \
        (0, loads("trace", INTEGRAL, INPUTS, FORMATS["csv"],
                  {"braidinv.convergence", "json"}))
    assert b"insufficient" in out
    assert unrun <= FILE_TRACE_UNRUN
