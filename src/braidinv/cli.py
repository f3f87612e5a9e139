"""Command line interface: the flag table, its parser and the dispatch to one
subcommand.

Subcommands: lift, zmap, qexpand, asymptotics, beta, basis, trace,
reproduce.  Exit codes: 0 when everything asked for passed, 1 for bad
input or a usage error, 2 when a computation disagrees with a bundled
reference value.

Each request compiles only the code it runs: with no bytecode cache
(PYTHONDONTWRITEBYTECODE) Python compiles every module it imports, every
time, about a sixth of a short request; starting the interpreter and site
takes most of the rest.  Once main returns, the process entry,
braidinv.__main__.main, runs the exit handlers, flushes stdout and stderr
and ends the process with os._exit, so no teardown follows.  main never
ends the process, as it also runs in-process.  This module
imports no library module at the top and reads argv with its own table
(COMMANDS), so argparse, gettext and locale never load; after parsing,
main imports braidinv.commands.<name>, which imports what it uses, and
calls its run(args).  run returns (exit code, tables), each
table a plain (title, columns, rows, notes) tuple; main alone renders the
tables in the chosen format and writes them to --out or stdout.  Code that
a request never runs lives where that request does not load it: --help and
usage errors load this module and braidinv.usage, which writes them and
which no other request loads; the JSON and CSV writers load only for their
format, the stock sequences of trace only for a trace of one, and the JSON
reader braidinv.inputs only for a JSON braid or a sequence file.  The
lift solve, inverse_engine, loads only for lift and reproduce's lift
table, and the expansions at q - q^-1, pair_expansions, only for the
requests that read one; beta, basis without --solve-t and reproduce
without its lift and pairs tables skip both and braid_ring and
power_series, and only zmap and trace load kontsevich.  floats,
which alone reads the precision, tags the float columns and prints their
cells from integer arithmetic, loads only for float columns (asymptotics,
beta --s 1, basis --solve-t).  json loads only for a JSON braid, a
sequence file or a cell that needs escaping in --format json, csv never
loads, and no request imports mpmath.  The only record types, BraidSum and
MomentMatrix, are plain classes, so no class generator loads.

The library raises ValueError for bad input and ArithmeticError for a
broken internal invariant.  main() alone turns exceptions into exit codes:
a ValueError or an OSError exits 1 with one `error:` line, and an
ArithmeticError keeps its traceback.  main writes and flushes the help
and the payload inside that handling, whatever the buffering of stdout: a
closed pipe exits 0 with nothing on stderr, and any other write failure is
an OSError; after either, fd 1 points at the null device, so no flush at
exit fails again.  With fd 1 closed before the start there is no
sys.stdout, and writing the help or the payload is an OSError too; --out
still writes its file.  A number past the integer-to-string guard is one of
those ValueErrors, named by that limit: main sets the guard to
INT_STR_DIGITS for the run, whatever PYTHONINTMAXSTRDIGITS or the caller
set, and gives the caller's back after it.  argv is the only setting a
request reads: no environment variable changes a number, a digit count or
an exit code.
"""

import sys
from importlib import import_module
from types import SimpleNamespace

INT_STR_DIGITS = 100000


# ---------------------------------------------------------------------------
# parser: one table of commands and flags, read by parse_args and rendered
# as usage and help.  A flag of kind int or str takes a value, bool is a
# switch and list collects values; FLAG fills the fields an entry leaves out

FLAG = {"kind": str, "default": None, "choices": (), "required": False,
        "help": ""}
OUTPUT_FLAGS = {  # taken by every command
    "--format": {"default": "text", "choices": ("text", "json", "csv")},
    "--digits": {"kind": int, "default": 50,
                 "help": "float precision in significant digits (default 50)"},
    "--out": {"help": "write output to a file"},
}
REQUIRED_INT = {"kind": int, "required": True}
SWITCH = {"kind": bool, "default": False}
COMMANDS = {  # command -> (help line, its own flags)
    "lift": ("lift coefficients", {
        "--order": REQUIRED_INT,
        "--method": {"default": "strengthen",
                     "choices": ("strengthen", "reversion")}}),
    "zmap": ("series and graded values of a braid sum", {
        "--braid": {"default": "tau"}, "--order": {"kind": int, "default": 7},
        "--jmax": {"kind": int}}),
    "qexpand": ("pair expansion of a lift", {
        "--order": REQUIRED_INT, "--power": {"kind": int, "default": 1}}),
    "asymptotics": ("pair coefficients against 4/pi limits", {
        "--j": REQUIRED_INT,
        "--orders": {"required": True, "help": "comma separated lift orders"}}),
    "beta": ("regularized sums and the Leibniz check", {"--s": REQUIRED_INT}),
    "basis": ("moment matrices and inverse entries", {
        "--r": REQUIRED_INT, "--unbalanced": SWITCH,
        "--entry": {"help": "ROW,COL (1-based)"}, "--solve-t": SWITCH,
        "--with-factorials": SWITCH}),
    "trace": ("finite-window convergence diagnostics", {
        "--sequence": {"default": "tauhat",
                       "help": "tauhat, pairs, harmonic, or a JSON file path"},
        "--jmax": {"kind": int, "default": 5},
        "--window": {"kind": int, "default": 8}}),
    "reproduce": ("check every bundled reference table", {
        "--table": {"kind": list,
                    "choices": ("beta", "lift", "onefive", "pairs", "zeta2"),
                    "help": "run a specific table; may repeat"}}),
}
HELP = ("-h", "--help")


def parse_args(argv):
    """The request in argv: command, then one attribute per flag.

    A flag takes its value as the next token or after `=`, and may be
    shortened to a unique prefix; the last of repeated flags wins, and
    --table appends.  Raises SystemExit(0) after printing help (OSError
    if it cannot be written) and SystemExit(1) after a usage error.
    """
    for at, token in enumerate(argv):
        hit = _match(token, HELP, None)
        if hit is None:
            break
        if hit[0] in HELP:
            _help(None, hit[1])
    else:
        _fail(None, "the following arguments are required: command")
    command, tokens, stray = argv[at], argv[at + 1:], list(argv[:at])
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(COMMANDS)})")
    table = flags(command)
    options = HELP + tuple(table)
    # every token is matched first: an ambiguous prefix fails even after -h
    hits = [_match(token, options, command) for token in tokens]
    args = SimpleNamespace(command=command, **{
        _dest(name): spec["default"] for name, spec in table.items()})
    pairs = iter(zip(tokens, hits))
    for token, hit in pairs:
        if hit is None or hit[0] not in options:
            stray.append(token)
            continue
        name, value = hit
        if name in HELP:
            _help(command, value)
        kind, choices = table[name]["kind"], table[name]["choices"]
        if kind is bool and value is not None:
            _fail(command, f"argument {name}: ignored explicit argument "
                           f"{value!r}")
        if kind is not bool and value is None:
            value, hit = next(pairs, (None, ()))
            if hit is not None:
                _fail(command, f"argument {name}: expected one argument")
        try:
            value = (True if kind is bool else integer(value, name)
                     if kind is int else value)
        except ValueError:
            _fail(command, f"argument {name}: invalid int value: {value!r}")
        if choices and value not in choices:
            _fail(command, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(choices)})")
        if kind is list:
            value = (getattr(args, _dest(name)) or []) + [value]
        setattr(args, _dest(name), value)
    given = {hit and hit[0] for hit in hits}
    missing = [name for name, spec in table.items()
               if spec["required"] and name not in given]
    if missing:
        _fail(command, f"the following arguments are required: "
                       f"{', '.join(missing)}")
    if stray:
        _fail(command, f"unrecognized arguments: {' '.join(stray)}")
    return args


def integer(text: str, what: str, signed: bool = True) -> int:
    """int(text) for ASCII decimal digits, after a sign only if signed."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"{what} {text!r} is not a decimal integer")
    return int(text)


def _match(token, options, command):
    """(option, its `=` value or None) for a flag, None for a value: '-', a
    negative number, or a token with no leading '-' or with a space.  A flag
    may be a unique prefix of an option; an unknown one comes back as is."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "h":
        return "-h", token[2:] or None
    name, eq, value = token.partition("=")
    found = [name] if name in options else [
        option for option in options
        if token[1] == "-" and len(name) > 2 and option.startswith(name)]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {name} could match "
                       f"{', '.join(found)}")
    if found:
        return found[0], value if eq else None
    whole, dot, fraction = token[1:].partition(".")
    if (whole.isdecimal() or dot and not whole) and \
            (not dot or fraction.isdecimal()) or " " in token:
        return None
    return token, None


def flags(command):
    """Every flag of command, with the fields FLAG fills in."""
    return {name: {**FLAG, **spec} for name, spec in
            {**OUTPUT_FLAGS, **COMMANDS[command][1]}.items()}


def _dest(name):
    return name[2:].replace("-", "_")


# the help and usage errors are written by braidinv.usage, which loads only
# for them

def _fail(command, message):
    from .usage import fail
    fail(command, message)


def _help(command, value):
    from .usage import show_help
    show_help(command, value)


def write_stdout(payload):
    """Write and flush the payload; if that fails, point fd 1 at the null
    device before raising, so that no flush at exit fails again.  With fd 1
    closed at start there is no sys.stdout, and that is an OSError too."""
    if sys.stdout is None:
        raise OSError("standard output is closed")
    try:
        sys.stdout.write(payload)
        sys.stdout.flush()
    except OSError:
        import os
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


def main(argv=None) -> int:
    # exact rationals in the tables run to thousands of digits; the
    # int-to-str guard is INT_STR_DIGITS for this run, whatever the caller's
    guard = hasattr(sys, "get_int_max_str_digits")
    if guard:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(INT_STR_DIGITS)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code, tables = import_module(f".commands.{args.command}",
                                     __package__).run(args)
        from . import render  # render_text, render_json or render_csv
        payload = getattr(render, f"render_{args.format}")(tables)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            write_stdout(payload)
        return code
    except SystemExit as exc:  # help or a usage error
        return exc.code
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        if "int_max_str_digits" in str(exc):
            # Python's message advises a call that no user of the CLI can make
            exc = (f"a number exceeds the {INT_STR_DIGITS:,}-digit input and "
                   f"output limit")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if guard:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
