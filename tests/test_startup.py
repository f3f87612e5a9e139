"""What each README command imports, and how much of it runs.

The CLI core loads no library module; after parsing it loads the one
command module that runs, and that module loads only the library modules
it uses.  So --help and a usage error load the core and the help writer
alone, a command loads braidinv.floats only when it prints a float column,
and each library module loads only for the commands that call it.  The
JSON and CSV writers load only for their format.  braidinv.render, which
every command loads, puts a JSON braid's coefficients and a trace's values
over a common denominator, so braidinv.power_series, which holds no code,
never loads.  braidinv.inputs loads only for a JSON braid and a trace of
a sequence file, braidinv.sequences only for a trace of a stock sequence,
and _json, json's C scanner, only for a JSON input.  json, fractions,
decimal, numbers and the utf-8-sig codec never load for a README command
or a request of the bench workloads: every rational is an integer pair,
every float a (mantissa, exponent) pair, JSON is read by json's own C
scanner, a sequence file is decoded from its bytes, and the writers write
JSON and CSV themselves, escaping a JSON string outside printable ASCII with
_json's own encoder.  csv, dataclasses, inspect, mpmath and
__future__ never load.  The core parses argv from its own flag table, so
argparse, and the gettext and locale it pulls in, never load.
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
                n in ("mpmath", "json", "_json", "csv", "dataclasses",
                      "inspect", "argparse", "gettext", "locale",
                      "__future__", "fractions", "decimal", "numbers",
                      "encodings.utf_8_sig"))

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
# the lift solve, the expansions at q - q^-1 and the moment matrices and
# their inverses hold their rationals as integers: none of them brings the
# braid ring with it, but a power of an expansion is checked through the
# integral
ENGINE = {"braidinv.inverse_engine"}
EXPANSIONS = {"braidinv.pair_expansions"}
SOLVER = {"braidinv.basis_solver"}
RING = {"braidinv.braid_ring"}
INTEGRAL = RING | {"braidinv.kontsevich"}
FLOATS = {"braidinv.floats"}
REGULARIZATION = {"braidinv.regularization"}
# what no request loads now that every number is an integer pair and JSON
# is read by _json's scanner: each took 0.2-3 ms to import
UNUSED = {"json", "fractions", "decimal", "numbers", "encodings.utf_8_sig"}
# a trace puts each trace's values over their common denominator, and
# reading a JSON braid or a sequence file puts its coefficients over
# theirs, both with render.common_denominator
CONVERGENCE = {"braidinv.convergence"}
INPUTS = {"braidinv.inputs"}
# holds no code and stays only for the bench tracer; no request loads it
EMPTY = "braidinv.power_series"

# README command -> what it loads beyond ALWAYS and its module, in every format
EXTRA = {
    "lift --order 13": ENGINE,
    "zmap --braid pair:2 --order 4": INTEGRAL,
    "qexpand --order 11": EXPANSIONS,
    "qexpand --order 5 --power 2": EXPANSIONS | INTEGRAL,
    "asymptotics --j 3 --orders 9,25,49": EXPANSIONS | FLOATS,
    "beta --s 1": FLOATS | REGULARIZATION,
    "beta --s 7": REGULARIZATION,
    "basis --r 2 --entry 1,3": SOLVER,
    "basis --r 3 --solve-t": EXPANSIONS | FLOATS | SOLVER,
    # the integral traces bring kontsevich back
    "trace --sequence tauhat --window 8":
        EXPANSIONS | INTEGRAL | CONVERGENCE | {"braidinv.sequences"},
    # the lift, pairs and entry tables read integers and compare pairs
    "reproduce": ENGINE | EXPANSIONS | SOLVER | REGULARIZATION,
}
# format -> the writer module it adds, as render lays out text itself; the
# json and csv modules load for none of them
FORMATS = {"text": set(), "json": {"braidinv.json_document"},
           "csv": {"braidinv.csv_document"}}


# the most of the braidinv bytecode a request compiles that may never run:
# any README command in any format (reproduce --format csv, whose tables
# call few of the functions of the modules they load, leaves 0.24 unrun,
# the most of them), and a trace of a sequence file, which the trace-wide
# bench workload runs most
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
    (["zeta2", "onefive"], SOLVER),
    (["beta"], REGULARIZATION),
], ids=["zeta2-onefive", "beta"])
def test_reproduce_loads_only_its_tables(tables, adds):
    argv = ["reproduce"] + [arg for table in tables
                            for arg in ("--table", table)]
    code, loaded, out, _ = probe(argv)
    assert (code, loaded) == (0, loads("reproduce", adds))
    assert out.count(b"PASS") > len(tables)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_unbalanced_basis_with_factorials_loads_no_fractions(fmt):
    # factorials make the matrix entries proper fractions, still pairs
    argv = ["basis", "--r", "6", "--unbalanced", "--with-factorials",
            "--entry", "7,7", "--format", fmt]
    code, loaded, out, unrun = probe(argv)
    assert (code, loaded) == (0, loads("basis", SOLVER, FORMATS[fmt]))
    assert b"1/720" in out and unrun <= README_UNRUN


def test_json_braid_loads_json():
    argv = ["zmap", "--braid", '{"2": 1, "-2": -1}', "--order", "4"]
    assert probe(argv)[:3] == \
        (0, loads("zmap", INTEGRAL, INPUTS, {"_json"}),
         read_golden("zmap --braid pair:2 --order 4 --format text"))


def test_sequence_file_trace_skips_the_engine(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"items": [{"1": 1}, {"1": 0.5}, {"1": "1/4"}]}',
                    encoding="utf-8")
    code, loaded, out, unrun = probe(["trace", "--sequence", str(path),
                                      "--window", "3", "--format", "csv"])
    assert (code, loaded) == \
        (0, loads("trace", INTEGRAL, INPUTS, FORMATS["csv"], CONVERGENCE,
                  {"_json"}))
    assert b"insufficient" in out
    assert unrun <= FILE_TRACE_UNRUN


def test_a_json_label_outside_ascii_loads_no_json(tmp_path):
    # the title is escaped as json.dumps escapes it, by _json's encoder
    path = tmp_path / "cafe.json"
    path.write_text('{"label": "caf\u00e9", "items": [{"1": 1}, {"1": 2}]}',
                    encoding="utf-8")
    code, loaded, out, _ = probe(["trace", "--sequence", str(path),
                                  "--window", "2", "--format", "json"])
    assert code == 0 and b'"coefficient traces for caf\\u00e9' in out
    assert "_json" in loaded and not loaded & UNUSED


@pytest.mark.parametrize("argv", [
    "trace --sequence tauhat", "trace --sequence pairs",
    "trace --sequence harmonic", "trace --sequence {seq} --window 3",
    "zmap --braid tau", "zmap --braid pair:3", "zmap --braid sigma^5",
    'zmap --braid {"1":1.5e-3,"0":"-7/4","-1":2}'],
    ids=["tauhat", "pairs", "harmonic", "file", "tau", "pair", "sigma-power",
         "json"])
def test_braid_ring_requests_load_no_fractions(argv, tmp_path):
    # the integral, the traces and the JSON reader hold integer pairs
    path = tmp_path / "seq.json"
    path.write_text('{"items": [{"1": 1}, {"1": 2.5E-1, "-1": "-3/4"}, '
                    '{"1": 0.125, "-1": -0.75}]}', encoding="utf-8")
    code, loaded, out, _ = probe(argv.replace("{seq}", str(path)).split())
    assert code == 0 and out.startswith((b"coefficient traces", b"integral"))
    assert not loaded & UNUSED and EMPTY not in loaded


# one request of each shape that bench/workloads.py builds, beside the
# README commands of readme-session, which the tests above pin: the
# command and its flags, and each format, which picks the writer
WORKLOAD_SHAPES = {
    "lift-ladder": ["lift --order 15", "lift --order 51 --method reversion",
                    "qexpand --order 15", "qexpand --order 9 --power 2",
                    "qexpand --order 13 --power 3",
                    "asymptotics --j 3 --orders 5,9,17"],
    "basis-ladder": ["basis --r 3 --solve-t", "basis --r 5 --entry 1,3",
                     "basis --r 8 --unbalanced --entry 1,3",
                     "basis --r 7 --with-factorials --entry 1,3",
                     "reproduce --table zeta2 --table onefive"],
    "trace-wide": ["trace --sequence tauhat --window 7",
                   "trace --sequence pairs --window 8",
                   "trace --sequence harmonic --window 9",
                   "trace --sequence {seq} --window 3"],
}


@pytest.mark.parametrize("argv", [
    argv for shapes in WORKLOAD_SHAPES.values() for argv in shapes])
def test_no_workload_request_loads_json_or_fractions(argv, tmp_path):
    # a sequence file as the bench writes one: a label and "p/q" strings
    path = tmp_path / "deep-0.json"
    path.write_text(json.dumps({"label": "deep-0", "items": [
        {"40": "1/3", "-40": "-1/3"}, {"40": "1/3", "-40": "-1/3", "0": "2"},
        {"40": "1/3", "-40": "-1/3", "0": "5/7"}]}), encoding="utf-8")
    for fmt in FORMATS:
        key = f"{argv} --format {fmt}".replace("{seq}", str(path))
        code, loaded, out, _ = probe(key.split())
        assert code == 0 and out, key
        assert not loaded & UNUSED and EMPTY not in loaded, key
