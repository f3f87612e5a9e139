"""Command line driver: the parser and the dispatch to one subcommand.

Subcommands: lift, zmap, qexpand, asymptotics, beta, basis, trace,
reproduce.  Exit codes: 0 when everything asked for passed, 1 for bad
input, 2 when a computation disagrees with a bundled reference value.

Each request compiles only the code it runs: with no bytecode cache
(PYTHONDONTWRITEBYTECODE) Python compiles every module it imports, every
time.  This module imports no library module at the top; after parsing,
main imports braidinv.commands.<name>, which imports what it uses, and
calls its run(args).  So --help loads this module alone, beta and basis
without --solve-t skip inverse_engine, kontsevich, braid_ring and
power_series, and a trace of a sequence file skips inverse_engine.  mpmath
loads only for float columns (asymptotics, beta --s 1, basis --solve-t),
json only for --format json, a JSON braid or a sequence file, and csv only
for --format csv; the record types are plain classes, so no class
generator loads at all.

The library raises ValueError for bad input and ArithmeticError for a
broken internal invariant.  main() alone turns exceptions into exit codes:
a ValueError or an OSError exits 1 with one `error:` line, and an
ArithmeticError keeps its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

ENV_FLOAT_DIGITS = "BRAIDINV_FLOAT_DIGITS"
DEFAULT_FLOAT_DIGITS = 50
INT_STR_DIGITS = 100000


def emit(args, tables) -> None:
    """Render the tables in the chosen format to --out or stdout."""
    # imported per call: the core loads no library module at start-up
    from .render import render_csv, render_json, render_text
    renderers = {"text": render_text, "json": render_json, "csv": render_csv}
    payload = renderers[args.format](tables)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _float_digits(args) -> int:
    """Float precision: --digits, else BRAIDINV_FLOAT_DIGITS, else 50.

    Read only by the commands that print float columns, so a bad value
    fails those and no other.
    """
    digits = args.digits
    if digits is None:
        raw = os.environ.get(ENV_FLOAT_DIGITS, str(DEFAULT_FLOAT_DIGITS))
        try:
            digits = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_FLOAT_DIGITS} must be an integer, "
                             f"got {raw!r}") from None
    if digits < 10:
        raise ValueError("float output needs at least 10 digits")
    return digits


# ---------------------------------------------------------------------------
# braid input parsing; JSON numbers are read as exact decimals: 0.1 is 1/10,
# 1e400 is 10^400, and Fraction rejects NaN and Infinity with a ValueError


def parse_braid(text: str) -> BraidSum:
    """Named elements, sigma^K, pair:N, or a JSON exponent map."""
    from .braid_ring import identity, pair, sigma, sigma_bar, sigma_power, tau
    named = {"tau": tau, "sigma": sigma, "sigmabar": sigma_bar,
             "e": identity, "identity": identity}
    if text in named:
        return named[text]()
    if text.startswith("pair:"):
        try:
            return pair(int(text[5:]))
        except ValueError as exc:
            raise ValueError(f"bad pair spec {text!r}: {exc}") from exc
    if text.startswith("sigma^"):
        try:
            return sigma_power(int(text[6:]))
        except ValueError as exc:
            raise ValueError(f"bad power spec {text!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        import json
        from fractions import Fraction
        try:
            raw = json.loads(text, parse_float=Fraction,
                             parse_constant=Fraction)
        except ValueError as exc:
            raise ValueError(f"bad braid JSON: {exc}") from exc
        return _exponent_map(raw)
    raise ValueError(f"unknown braid {text!r}; use tau, sigma, sigmabar, e, "
                     f"pair:N, sigma^K, or a JSON exponent map")


def _exponent_map(raw) -> BraidSum:
    """A braid sum from a parsed JSON object mapping exponents to rationals."""
    from fractions import Fraction
    from .braid_ring import BraidSum
    try:
        return BraidSum({int(k): Fraction(v) for k, v in raw.items()})
    except (ValueError, ZeroDivisionError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad exponent map: {exc}") from exc


def load_sequence(path: str) -> BraidSumSequence:
    """A sequence from a JSON file {"label": ..., "items": [exponent maps]}."""
    import json
    from fractions import Fraction
    from .convergence import BraidSumSequence
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle, parse_float=Fraction,
                                parse_constant=Fraction)
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("items"), list):
            raise ValueError("expected an object with an 'items' list")
        items = [_exponent_map(item) for item in payload["items"]]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load sequence from {path}: {exc}") from exc
    return BraidSumSequence(items, payload.get("label", path))


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braidinv",
                     description="exact computations for the inverse problem "
                                 "of the two-strand braid integral")
    subs = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    output.add_argument("--digits", type=int, default=None,
                        help=f"float precision in significant digits "
                             f"(default {DEFAULT_FLOAT_DIGITS}, or "
                             f"{ENV_FLOAT_DIGITS})")
    output.add_argument("--out", default=None, help="write output to a file")

    def command(name, help):
        return subs.add_parser(name, parents=[output], help=help)

    p = command("lift", "lift coefficients")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=("strengthen", "reversion"),
                   default="strengthen")

    p = command("zmap", "series and graded values of a braid sum")
    p.add_argument("--braid", default="tau")
    p.add_argument("--order", type=int, default=7)
    p.add_argument("--jmax", type=int, default=None)

    p = command("qexpand", "pair expansion of a lift")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--power", type=int, default=1)

    p = command("asymptotics", "pair coefficients against 4/pi limits")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--orders", required=True,
                   help="comma separated lift orders")

    p = command("beta", "regularized sums and the Leibniz check")
    p.add_argument("--s", type=int, required=True)

    p = command("basis", "moment matrices and inverse entries")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--unbalanced", action="store_true")
    p.add_argument("--entry", default=None, help="ROW,COL (1-based)")
    p.add_argument("--solve-t", action="store_true", dest="solve_t")
    p.add_argument("--with-factorials", action="store_true",
                   dest="with_factorials")

    p = command("trace", "finite-window convergence diagnostics")
    p.add_argument("--sequence", default="tauhat",
                   help="tauhat, pairs, harmonic, or a JSON file path")
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--window", type=int, default=8)

    p = command("reproduce", "check every bundled reference table")
    p.add_argument("--table", action="append",
                   choices=("beta", "lift", "onefive", "pairs", "zeta2"),
                   help="run a specific table; may repeat")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    # exact rationals in the tables run to thousands of digits; the
    # int-to-str guard is raised for this run only
    limit = (sys.get_int_max_str_digits()
             if hasattr(sys, "get_int_max_str_digits") else 0)
    raise_limit = 0 < limit < INT_STR_DIGITS
    if raise_limit:
        sys.set_int_max_str_digits(INT_STR_DIGITS)
    try:
        return import_module(f".commands.{args.command}", __package__).run(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if raise_limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
