"""Every end-to-end check of the braidinv command line, one row each.

Each row runs `python -m braidinv ARGS` under this interpreter in a fresh
process and checks its exit code, stderr and stdout; no stderr may hold a
traceback or Python's advice to call set_int_max_str_digits.  This is the
only code under tests/ that spawns the command line: a test that reads
only a run's output calls braidinv.cli.main in-process, and a check of
process behaviour is a row here.  The script needs only the standard
library and takes no arguments.  It runs the rows one after another,
prints each failure and the count, and exits 1 if a row failed:

    PYTHONPATH=src /path/to/python3.X tests/replay_cli.py

Where braidinv is installed, no PYTHONPATH is needed.  The rows: README,
every README command against bench/readme_digests.json; REFUSED and
GUARDS, bad input that exits 1, the last under each setting of Python's
own digit guard; UNWRITABLE, stdout that is closed, full or a pipe whose
reader has gone, buffered and not; AT_SIZE, every subcommand once, some at
sizes the goldens do not reach, the largest lifts and expansions and a
power against the SHA-256 of their stdout; READ_BACKS, output read back through the json, csv and
fractions modules, which the package's writers do not use.
tests/test_replay_cli.py, tests/test_cli.py and tests/test_entry.py run
each row as a test, once however many tests name it; tests/test_entry.py
also runs some through the console script, an entry that check takes.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv holds "{tmp}/NAME" for a file of FILES, written before the run;
# env maps a variable to its value, or to None to unset it; stdout is
# "pipe", "closed" (fd 1 closed at the start), "full" (/dev/full) or
# "broken" (a pipe whose reader has gone)
Row = namedtuple("Row", "name argv check env stdout", defaults=({}, "pipe"))
Result = namedtuple("Result", "code out err folder")

LIMIT = "error: a number exceeds the 100,000-digit input and output limit\n"
MAP = "error: bad exponent map: "
LABEL = 'say "hi", then\nleave \u00e9'
TWO = '[{"1": 1}, {"1": 2}]'
FILES = {
    "zero.json": '{"items": [{"1": "1/0"}]}',
    "zero-later.json": '{"items": [{"1": 1}, {"1": 2, "-2": "5/0"}]}',
    "infinite.json": '{"items": [{"1": 1}, {"1": -Infinity}]}',
    "array.json": '[{"1": "1"}]',
    "bool.json": '{"items": [{"1": 1}, {"1": true}]}',
    "underscore.json": '{"items": [{"1": 1}, {"1": "1_0"}]}',
    "empty.json": '{"items": []}',
    "one.json": '{"items": [{"1": "1"}]}',
    "label-null.json": f'{{"label": null, "items": {TWO}}}',
    "label-list.json": f'{{"label": ["x"], "items": {TWO}}}',
    # a lone surrogate: --format json could escape it, text and csv cannot
    "label-surrogate.json": f'{{"label": "\\ud800", "items": {TWO}}}',
    "repeated.json": '{"items": [{"1": 1}, {"1": 1, "+1": 2}]}',
    "item-number.json": '{"items": [{"1": 1}, 5]}',
    "items-twice.json":
        f'{{"items": {TWO}, "items": [{{"1": 3}}, {{"1": 4}}]}}',
    "label-twice.json": f'{{"label": "a", "items": {TWO}, "label": "b"}}',
    # past the recursion limit: a Python that parses this deep rejects the
    # nested list instead, so the message is left unchecked
    "deep.json": '{"items": ' + "[" * 100000 + "]" * 100000 + "}",
    "bom.json": f'\ufeff{{"label": "bom", "items": {TWO}}}\n',
    # read as text mode reads them: \r\n and \r are \n before the JSON
    # is read, so the error names line 3, and a raw CR in a string is a
    # raw LF; one mark is skipped, a second is refused, and a decoding
    # error counts its position after the mark
    "crlf.json": '{"label": "crlf",\r\n "items": [{"1": 1},\r\n'
                 ' {"1": 2} {"1": 3}]}\r\n',
    "raw-cr.json": f'{{"label": "a\rb", "items": {TWO}}}',
    "bom-twice.json": f'\ufeff\ufeff{{"items": {TWO}}}',
    "bom-bad-byte.json": b'\xef\xbb\xbf{"items": [\xff]}',
    "bom-part.json": b"\xef\xbb",
    "trailing.json": f'{{"items": {TWO}}}\n]',
    "empty-text.json": "",
    "label.json": json.dumps({"label": LABEL, "items": json.loads(TWO)},
                             ensure_ascii=False),
}

with open(os.path.join(ROOT, "bench", "readme_digests.json"),
          encoding="utf-8") as _handle:
    DIGESTS = json.load(_handle)


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def prints(digest=None, then=None):
    """Exit 0 with nothing on stderr; the SHA-256 of stdout is digest, if
    given, and then(result) checks the rest."""
    def check(result):
        expect((result.code, result.err) == (0, ""),
               f"exit {result.code}, stderr {result.err!r}")
        if digest is not None:
            expect(hashlib.sha256(result.out).hexdigest() == digest,
                   "stdout differs from its digest")
        if then is not None:
            then(result)
    return check


def refused(stderr=None, usage=False):
    """Exit 1 with nothing on stdout and one error line on stderr, after
    the usage line for a usage error; the whole stderr, if given."""
    def check(result):
        lines = result.err.splitlines(keepends=True)
        expect(result.code == 1 and result.out == b"",
               f"exit {result.code}, stdout {result.out[:80]!r}")
        if usage:
            expect(len(lines) == 2 and lines[0].startswith("usage: braidinv ")
                   and lines[1].startswith("braidinv ")
                   and ": error: " in lines[1], f"stderr {result.err!r}")
        else:
            expect(len(lines) == 1 and lines[0].startswith("error: ")
                   and lines[0].endswith("\n"), f"stderr {result.err!r}")
        expect(stderr is None
               or result.err == stderr.replace("{tmp}", result.folder),
               f"stderr {result.err!r}, not {stderr!r}")
    return check


def holds(text):
    """A check that stdout holds text."""
    def check(result):
        expect(text.encode("utf-8") in result.out, f"stdout lacks {text!r}")
    return check


def same_file(key, name):
    """A check that the file NAME holds the stdout of the README key."""
    def check(result):
        with open(os.path.join(result.folder, name), "rb") as handle:
            expect(hashlib.sha256(handle.read()).hexdigest() == DIGESTS[key],
                   f"{name} differs from the stdout of {key}")
    return check


README = [Row(key, key.split(), prints(DIGESTS[key]))
          for key in sorted(DIGESTS)]

REFUSED = [Row(name, argv, refused(*more)) for name, argv, *more in [
    # each name as tests/test_cli.py has long named the case
    ("negative-order", ["zmap", "--order", "-1"]),
    ("zero-denominator", ["zmap", "--braid", '{"1": "1/0"}'],
     f"{MAP}the coefficient '1/0' of exponent 1 has a zero denominator\n"),
    # an exponent is named as it is written
    ("zero-denominator-signed", ["zmap", "--braid", '{"-02": "-3/00"}'],
     f"{MAP}the coefficient '-3/00' of exponent -02 has a zero denominator\n"),
    ("sequence-zero-denominator", ["trace", "--sequence", "{tmp}/zero.json"]),
    ("sequence-zero-denominator-later",
     ["trace", "--sequence", "{tmp}/zero-later.json"],
     "error: cannot load sequence from {tmp}/zero-later.json: bad exponent "
     "map: the coefficient '5/0' of exponent -2 has a zero denominator\n"),
    ("sequence-top-level-array", ["trace", "--sequence", "{tmp}/array.json"]),
    ("missing-out-dir", ["lift", "--order", "5", "--out", "{tmp}/missing/x"]),
    ("solve-t-at-r-0", ["basis", "--r", "0", "--solve-t"]),
    ("sequence-empty", ["trace", "--sequence", "{tmp}/empty.json"]),
    ("sequence-one-item", ["trace", "--sequence", "{tmp}/one.json"]),
    ("zmap-negative-jmax", ["zmap", "--jmax", "-1"]),
    ("trace-negative-jmax", ["trace", "--jmax", "-1"]),
    ("json-infinity", ["zmap", "--braid", '{"1": Infinity}']),
    ("json-nan", ["zmap", "--braid", '{"1": NaN}']),
    ("sequence-json-infinity", ["trace", "--sequence", "{tmp}/infinite.json"]),
    ("basis-negative-r", ["basis", "--r", "-1"]),
    ("basis-unbalanced-negative-r", ["basis", "--r", "-1", "--unbalanced"]),
    ("entry-one-value", ["basis", "--r", "3", "--entry", "1"]),
    ("entry-three-values", ["basis", "--r", "3", "--entry", "1,3,4"]),
    ("json-true", ["zmap", "--braid", '{"1": true}']),
    ("json-false", ["zmap", "--braid", '{"1": false}']),
    ("exponent-underscore", ["zmap", "--braid", '{"1_0": 1}']),
    ("sequence-json-bool", ["trace", "--sequence", "{tmp}/bool.json"]),
    ("coefficient-underscore", ["zmap", "--braid", '{"1": "1_0"}']),
    ("coefficient-fullwidth", ["zmap", "--braid", '{"1": "\uff11"}']),
    ("sequence-coefficient-underscore",
     ["trace", "--sequence", "{tmp}/underscore.json"]),
    ("sequence-label-null", ["trace", "--sequence", "{tmp}/label-null.json"],
     "error: cannot load sequence from {tmp}/label-null.json: the label must "
     "be a string\n"),
    ("sequence-label-list", ["trace", "--sequence", "{tmp}/label-list.json"]),
    ("sequence-label-surrogate",
     ["trace", "--sequence", "{tmp}/label-surrogate.json", "--window", "2",
      "--format", "json"]),
    # past the limit whatever the interpreter's own guard lets through
    ("output-digits-power",
     ["zmap", "--braid", '{"1": "1e+000000000100000"}'], LIMIT),
    ("output-digits-inverse", ["zmap", "--braid", '{"1": "1e-100000"}'],
     LIMIT),
    ("output-digits-exponent-key",
     ["zmap", "--braid", '{"1' + "0" * 60000 + '": 1}', "--order", "2"]),
    ("repeated-exponent-sign", ["zmap", "--braid", '{"1": 1, "+1": 2}'],
     f"{MAP}exponent 1 given twice\n"),
    ("repeated-exponent-zero", ["zmap", "--braid", '{"01": 1, "1": 2}'],
     f"{MAP}exponent 1 given twice\n"),
    ("repeated-json-key", ["zmap", "--braid", '{"1": 1, "1": 2}'],
     f"{MAP}exponent 1 given twice\n"),
    ("sequence-repeated-exponent",
     ["trace", "--sequence", "{tmp}/repeated.json"]),
    ("sequence-item-number",
     ["trace", "--sequence", "{tmp}/item-number.json"],
     "error: cannot load sequence from {tmp}/item-number.json: bad exponent "
     "map: expected a JSON object\n"),
    ("coefficient-null", ["zmap", "--braid", '{"1": null}'],
     f"{MAP}the coefficient of exponent 1 must be a number or a string\n"),
    # json would keep the last value; the file is refused instead
    *[(f"sequence-{key}-twice",
       ["trace", "--sequence", f"{{tmp}}/{key}-twice.json"],
       f"error: cannot load sequence from {{tmp}}/{key}-twice.json: key "
       f"'{key}' given twice\n") for key in ("items", "label")],
    ("json-nested-deep",
     ["zmap", "--braid", '{"1": ' + "[" * 5000 + "]" * 5000 + "}"]),
    ("sequence-nested-deep", ["trace", "--sequence", "{tmp}/deep.json"]),
    # integers in a braid spec are ASCII decimals, as in a JSON key
    ("power-underscore", ["zmap", "--braid", "sigma^1_0"]),
    ("power-padded", ["zmap", "--braid", "sigma^ 5"]),
    ("pair-arabic-indic-digit", ["zmap", "--braid", "pair:\u0663"]),
    # lift orders are odd and given once
    ("orders-even-first", ["asymptotics", "--j", "3", "--orders", "10,49"]),
    ("orders-even-last", ["asymptotics", "--j", "3", "--orders", "9,10"]),
    ("orders-repeated", ["asymptotics", "--j", "3", "--orders", "9,9"]),
    ("orders-underscore", ["asymptotics", "--j", "3", "--orders", "1_1"]),
    ("orders-padded", ["asymptotics", "--j", "3", "--orders", " 9"]),
    ("orders-empty-item", ["asymptotics", "--j", "3", "--orders", "9,,25"]),
    ("entry-arabic-indic-digit", ["basis", "--r", "2", "--entry", "\u0663,1"]),
    ("reproduce-table-twice",
     ["reproduce", "--table", "pairs", "--table", "pairs"]),
    # every other integer the CLI reads is an ASCII decimal too; a bad flag
    # value is a usage error
    ("order-not-a-number", ["lift", "--order", "x"], None, True),
    ("order-arabic-indic-digit", ["lift", "--order", "\u0663"], None, True),
    ("even-order-reversion", ["lift", "--order", "6", "--method", "reversion"],
     "error: order 6 is not odd and positive\n"),
    ("json-exponent-past-limit",
     ["zmap", "--braid", '{"1": 1e100001, "-1": -1}']),
    ("entry-past-the-matrix", ["basis", "--r", "3", "--entry", "8,1"]),
    # a coefficient outside the grammar of Fraction(str), with its message
    *[(f"coefficient-{name}", ["zmap", "--braid", f'{{"1": "{text}"}}'],
       f"error: bad exponent map: Invalid literal for Fraction: '{text}'\n")
      for name, text in [("negative-denominator", "1/-2"),
                         ("hexadecimal", "0x10"), ("double-sign", "--1"),
                         ("decimal-ratio", "1.5/2"), ("point-d", "1.d")]],
    # text that is not JSON, with json's own message
    ("json-trailing-data", ["zmap", "--braid", '{"1": 1} x'],
     "error: bad braid JSON: Extra data: line 1 column 10 (char 9)\n"),
    *[(f"sequence-{name}", ["trace", "--sequence", f"{{tmp}}/{file}"],
       f"error: cannot load sequence from {{tmp}}/{file}: {message}\n")
      for name, file, message in [
          ("crlf-error-on-line-3", "crlf.json",
           "Expecting ',' delimiter: line 3 column 11 (char 49)"),
          ("raw-carriage-return", "raw-cr.json",
           "Invalid control character at: line 1 column 13 (char 12)"),
          ("byte-order-mark-twice", "bom-twice.json",
           "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
           "(char 0)"),
          ("bad-byte-after-byte-order-mark", "bom-bad-byte.json",
           "'utf-8' codec can't decode byte 0xff in position 11: invalid "
           "start byte"),
          ("part-of-byte-order-mark", "bom-part.json",
           "Expecting value: line 1 column 1 (char 0)"),
          ("trailing-data", "trailing.json",
           "Extra data: line 2 column 1 (char 32)"),
          ("empty-text", "empty-text.json",
           "Expecting value: line 1 column 1 (char 0)")]],
    ("float-digits-past-limit",
     ["asymptotics", "--j", "1", "--orders", "1", "--digits", "100001"],
     "error: float output takes 10 to 100,000 digits, the input and output "
     "limit\n"),
    # the top coefficient of the order-3487 expansion is about 2^-3503
    ("float-cell-past-range",
     ["asymptotics", "--j", "3487", "--orders", "3487"],
     "error: a float cell of about 2^-3503 is beyond the printable range of "
     "2^\u00b13500\n"),
]]

# 10^100000 has 100,001 digits; PYTHONINTMAXSTRDIGITS moves Python's own
# guard, not the CLI's
GUARDS = [Row(f"digit-limit-guard-{setting}",
              ["zmap", "--braid", '{"0": "1e100000"}', "--order", "0"],
              refused(LIMIT), {"PYTHONINTMAXSTRDIGITS": setting})
          for setting in (None, "0", "200000")]

# fd 1 closed at the start, /dev/full, or a reader that has gone (no
# error).  Unless PYTHONUNBUFFERED is set, a short payload stays in stdout's
# buffer until the flush; a long one, or the parser's help, is written at
# once.  A row name adds -long or -help for the payload, -unbuffered for it
CLOSED = refused("error: standard output is closed\n")
FULL = refused("error: [Errno 28] No space left on device\n")
BUFFERING = {"": {"PYTHONUNBUFFERED": None},
             "-unbuffered": {"PYTHONUNBUFFERED": "1"}}
UNWRITABLE = [
    Row("stdout-closed", ["lift", "--order", "5"], CLOSED,
        BUFFERING[""], "closed"),
    Row("stdout-closed-help", ["--help"], CLOSED, BUFFERING[""], "closed"),
    # the file opened for --out may take fd 1 itself
    Row("stdout-closed-out-file",
        ["lift", "--order", "13", "--out", "{tmp}/out.txt"],
        prints(then=same_file("lift --order 13 --format text", "out.txt")),
        BUFFERING[""], "closed"),
] + [Row(f"stdout-{name}{size}{buffering}", argv, check, env, stdout)
     for stdout, name, check in (("full", "full", FULL),
                                 ("broken", "broken-pipe", prints()))
     for size, argv in (("", ["lift", "--order", "13"]),
                        ("-long", ["basis", "--r", "40"]),
                        ("-help", ["--help"]))
     for buffering, env in BUFFERING.items()]


AT_SIZE = [Row(command, command.split(), prints()) for command in [
    "--help", "lift --help", "lift --order 301 --format csv",
    "lift --order 151 --method reversion",
    "qexpand --order 5",
    # an odd power, whose left factor is symmetric with a q^0 term
    "qexpand --order 201 --power 3 --format json",
    "asymptotics --j 3 --orders 9",
    "asymptotics --j 3 --orders 9,25,49,101,201 --format csv",
    "asymptotics --j 5 --orders 201,401,601 --format csv",
    # the integer lift and expansion paths at size
    "qexpand --order 601 --format csv", "qexpand --order 1201 --format csv",
    "lift --order 601 --format csv", "lift --order 1201 --format csv",
    "lift --order 2401 --format csv",
    "beta --s 41",
    "basis --r 6 --unbalanced --with-factorials --entry 7,7",
    "trace --window 4", "trace --sequence tauhat --window 30",
    "trace --sequence pairs --window 60",
    # condition (c) on wide windows: tauhat item i is read to depth i
    "trace --sequence tauhat --window 80",
    "trace --sequence pairs --window 120",
    "trace --sequence harmonic --window 6",
]] + [Row(command, command.split(), prints(digest))
      for command, digest in [
    # the lift past the goldens and past the 4,300-digit int-to-str guard,
    # byte for byte; both methods print the same bytes
    ("lift --order 4801 --format csv",
     "544f8bc753ce2e3d9abb08f1994916d988541ac5d90f1db0fbd290d539bed425"),
    *[(f"lift --order 9601{method} --format csv",
       "524733f0e1f1f0fe8804466bd026059c66fa7e3d6e8dd53b5fe283224ce4ee2f")
      for method in ("", " --method reversion")],
    # the expansions at size and a power, byte for byte
    ("qexpand --order 2401 --format csv",
     "b1f00216ae1756281aaa7579bdcb2171ea1fb67b4b08e465648c46a358e99cc2"),
    ("asymptotics --j 3 --orders 601,1201,2401 --format csv",
     "725e77f499c5f68bff73996ecac324fbf2a46fc50b55ce60549991459432ca43"),
    ("qexpand --order 301 --power 4 --format csv",
     "fb667492bdfed848ab94022cef38cf012f63625ccb0ef012dfcbc0b6ba292df2"),
]] + [Row(name, argv, prints(then=then)) for name, argv, then in [
    ("zmap-json-braid", ["zmap", "--braid", '{"1": "1", "-1": "-1"}'], None),
    ("zmap-identity", ["zmap", "--braid", "identity"],
     holds("integral of 1*q^0 through degree 7")),
    # 10^99999 has 100,000 digits, the most a cell may hold
    ("zmap-100000-digit-cell",
     ["zmap", "--braid", '{"0": "1e99999"}', "--order", "0"],
     holds(" 1" + "0" * 99999 + "\n")),
    # a sequence file that starts with a UTF-8 byte order mark
    ("trace-byte-order-mark",
     ["trace", "--sequence", "{tmp}/bom.json", "--window", "2"],
     holds("coefficient traces for bom, window 2")),
    ("reproduce-out-file", ["reproduce", "--out", "{tmp}/r.txt"],
     same_file("reproduce --format text", "r.txt")),
]] + [Row(f"coefficient-{name}",
          ["zmap", "--braid", f'{{"1": "{text}"}}', "--order", "2"],
          prints(then=holds(f"integral of {value}*q^1 through degree 2")))
      # the edges of the grammar of Fraction(str) that a coefficient may use
      for name, text, value in [
          ("point-last", "1.", "1"), ("point-first", ".5", "1/2"),
          ("plus-ratio", "+7/3", "7/3"),
          ("signed-exponent", "-.5E+2", "-50"),
          ("padded-ratio", "00012/0004", "3")]]


def inverse_reads_back(r, unbalanced=False, factorials=False):
    """A check of basis --r R --format json, read back with fractions: the
    printed moment matrix M is rebuilt from its nodes and N*M must be the
    identity exactly; an inverse entry must be its cell of N; the degree-1
    solution must be column 1 of N, and its table against the lift must
    run in increasing braid power with each difference the solution minus
    the lift."""
    def check(result):
        rows = {table["title"]: [list(map(Fraction, row))
                                 for row in table["rows"]]
                for table in json.loads(result.out)["tables"]}
        kind = "unbalanced" if unbalanced else "balanced"
        nodes = (list(range(r + 1)) if unbalanced else
                 [0] + [n for k in range(1, r + 1) for n in (k, -k)])
        size = len(nodes)
        M = [[Fraction(n ** i, math.factorial(i) if factorials else 1)
              for n in nodes] for i in range(size)]
        N = rows[f"inverse, r = {r}"]
        expect(rows[f"{kind} moment matrix, r = {r}"] == M,
               "the printed matrix differs")
        expect(all(sum(row[k] * M[k][j] for k in range(size)) == (i == j)
                   for i, row in enumerate(N) for j in range(size)),
               "N*M is not the identity")
        for title, table in rows.items():
            if title.startswith("inverse entry "):
                i, j = map(int, title[15:-1].split(","))
                expect(table[0][2] == N[i - 1][j - 1], f"{title} differs")
            if title == "solution of the degree-1 target system":
                expect(table == [[n, row[1]] for n, row in zip(nodes, N)],
                       "the solution is not column 1 of the inverse")
            if title.startswith("solution against"):
                expect(all(s - lift == diff for _, s, lift, diff in table),
                       "a difference is not the solution minus the lift")
                powers = [row[0] for row in table]
                expect(powers == sorted(set(powers)), "powers out of order")
    return check


def title_reads_back(fmt):
    """A check that the first title, read by json or csv, holds LABEL."""
    def check(result):
        text = result.out.decode("utf-8")
        title = (json.loads(text)["tables"][0]["title"] if fmt == "json"
                 else next(csv.reader(io.StringIO(text, newline="")))[1])
        expect(LABEL in title, f"--format {fmt} title {title!r}")
    return check


READ_BACKS = [
    Row("basis-r-20-inverse",
        ["basis", "--r", "20", "--entry", "1,3", "--solve-t", "--format",
         "json"], prints(then=inverse_reads_back(20))),
    Row("basis-r-9-unbalanced-inverse",
        ["basis", "--r", "9", "--unbalanced", "--with-factorials", "--format",
         "json"], prints(then=inverse_reads_back(9, True, True))),
] + [Row(f"label-reads-back-{fmt}",
         ["trace", "--sequence", "{tmp}/label.json", "--window", "2",
          "--format", fmt], prints(then=title_reads_back(fmt)))
     for fmt in ("json", "csv")]

ROWS = README + REFUSED + GUARDS + UNWRITABLE + AT_SIZE + READ_BACKS
BY_NAME = {row.name: row for row in ROWS}


# the interpreter's arguments before a row's command
MODULE = ("-m", "braidinv")


def spawn(row, folder, entry=MODULE):
    """Run the row's command in a fresh process through the entry: its
    Result."""
    argv = [sys.executable, *entry,
            *(arg.replace("{tmp}", folder) for arg in row.argv)]
    env = {name: value for name, value in {**os.environ, **row.env}.items()
           if value is not None}
    streams = {"pipe": subprocess.PIPE, "broken": subprocess.PIPE,
               "closed": None}
    out = (open("/dev/full", "wb") if row.stdout == "full"
           else streams[row.stdout])
    with subprocess.Popen(
            argv, env=env, stdout=out, stderr=subprocess.PIPE,
            preexec_fn=(lambda: os.close(1)) if row.stdout == "closed"
            else None) as process:
        if row.stdout == "broken":
            process.stdout.close()  # before the child can write
            output, err = b"", process.stderr.read()
        else:
            output, err = process.communicate(timeout=300)
        code = process.wait(timeout=300)
    if row.stdout == "full":
        out.close()
    return Result(code, output or b"", err.decode("utf-8", "replace"),
                  folder)


def check(row, entry=MODULE):
    """Run one row through the entry, writing the files it names first;
    raises AssertionError for a failed check."""
    with tempfile.TemporaryDirectory() as folder:
        for name, text in FILES.items():
            if "{tmp}/" + name in row.argv:
                with open(os.path.join(folder, name), "wb") as handle:
                    handle.write(text if isinstance(text, bytes)
                                 else text.encode("utf-8"))
        result = spawn(row, folder, entry)
        expect("Traceback" not in result.err, result.err)
        expect("set_int_max_str_digits" not in result.err, result.err)
        row.check(result)


def main():
    failed = 0
    for row in ROWS:
        try:
            check(row)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {row.name}: {exc}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass under Python "
          f"{sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
