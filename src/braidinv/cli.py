"""Command line driver wiring every module together.

Subcommands: lift, zmap, qexpand, asymptotics, beta, basis, trace,
reproduce.  Exit codes: 0 when everything asked for passed, 1 for bad
input, 2 when a computation disagrees with a bundled reference value.

Every subcommand imports braid_ring, inverse_engine, kontsevich and
render; the rest is imported by the commands that use it: basis_solver by
basis and reproduce, regularization by beta and reproduce, convergence by
trace, and mpmath only for float columns (asymptotics, beta --s 1,
basis --solve-t).  json loads only for --format json, a JSON braid or a
sequence file, and csv only for --format csv; the record types are plain
classes, so no class generator loads at all.

The library raises ValueError for bad input and ArithmeticError for a
broken internal invariant.  main() alone turns exceptions into exit codes:
a ValueError or an OSError exits 1 with one `error:` line, and an
ArithmeticError keeps its traceback.

The reproduce subcommand checks computed tables against reference values
recorded from the source material this artifact reproduces.  Two reference
cells are known misprints there; when the computation disagrees with the
printed value but matches the independently cross-checked correction, the
row is marked FLAGGED rather than FAIL and does not affect the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .braid_ring import (BraidSum, coefficient, combine, identity, pair,
                         render, sigma, sigma_bar, sigma_power, tau)
from .inverse_engine import (PairExpansion, asymptotic_check, closed_form_lift,
                             q_expand, reversion_lift, strengthen_to)
from .kontsevich import Z, focus_order
from .render import (Table, float_column, fmt_float, fmt_rational, render_csv,
                     render_json, render_text)

ENV_FLOAT_DIGITS = "BRAIDINV_FLOAT_DIGITS"
DEFAULT_FLOAT_DIGITS = 50
INT_STR_DIGITS = 100000


def emit(args, tables) -> None:
    """Render the tables in the chosen format to --out or stdout."""
    # built per call: the bench tracer rebinds these names after import
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
# reference values for the reproduce subcommand; printed forms kept verbatim,
# known misprints carry the cross-checked correction alongside

REF_LIFT = {1: "1", 3: "-1/24", 5: "3/640", 7: "-5/7168",
            9: "35/294912", 11: "-63/2883584", 13: "231/54525952"}

REF_PAIR_ROWS = [
    (1, {1: "1"}),
    (3, {1: "9/8", 3: "-1/24"}),
    (5, None),
    (7, {1: "1225/1024", 3: "-245/3072", 5: "49/5120", 7: "-5/7168"}),
    (9, {1: "19845/16384", 3: "-735/8192", 5: "567/40960",
         7: "-405/229376", 9: "35/294912"}),
    (11, {1: "160083/131072", 3: "-12705/13107", 5: "22869/1310720",
          7: "-5445/1835008", 9: "847/2359296", 11: "-63/2883584"}),
]
PAIR_MISPRINTS = {(11, 3): "-12705/131072"}

REF_ZETA2 = ["-1", "-5/4", "-49/36", "-205/144",
             "-5269/3600", "-5369/3600", "266681/176400", "-1077749/705600"]
ZETA2_MISPRINTS = {7: "-266681/176400"}

REF_ONEFIVE = ["1/4", "7/18", "91/192", "1529/2880",
               "37037/64800", "54613/90720", "63566689/101606400"]
REF_ONEFIVE_DIFFS = ["1/4", "5/36", "49/576", "41/720",
                     "5269/129600", "767/25200", "266681/11289600",
                     "1077749/57153600"]

BETA_ZERO_KS = (1, 3, 5, 7, 9, 11, 13)
BETA_RELATION_SS = (3, 5, 7, 9)


def _cell(where: str, printed: str | None, computed: Fraction,
          corrected: str | None = None) -> list[str]:
    """One reproduce row; INFO when no printed value exists."""
    if printed is None:
        verdict = "INFO"
    elif computed == Fraction(printed):
        verdict = "PASS"
    elif corrected is not None and computed == Fraction(corrected):
        verdict = "FLAGGED"
    else:
        verdict = "FAIL"
    return [where, printed or "(none)", fmt_rational(computed), verdict]


# ---------------------------------------------------------------------------
# braid input parsing

# JSON numbers are read as exact decimals: 0.1 is 1/10, 1e400 is 10^400;
# Fraction rejects the NaN and Infinity constants with a ValueError
EXACT_JSON = {"parse_float": Fraction, "parse_constant": Fraction}


def parse_braid(text: str) -> BraidSum:
    """Named elements, sigma^K, pair:N, or a JSON exponent map."""
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
        try:
            raw = json.loads(text, **EXACT_JSON)
        except ValueError as exc:
            raise ValueError(f"bad braid JSON: {exc}") from exc
        return _exponent_map(raw)
    raise ValueError(f"unknown braid {text!r}; use tau, sigma, sigmabar, e, "
                     f"pair:N, sigma^K, or a JSON exponent map")


def _exponent_map(raw) -> BraidSum:
    """A braid sum from a parsed JSON object mapping exponents to rationals."""
    try:
        return BraidSum({int(k): Fraction(v) for k, v in raw.items()})
    except (ValueError, ZeroDivisionError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad exponent map: {exc}") from exc


def load_sequence(path: str) -> BraidSumSequence:
    """A sequence from a JSON file {"label": ..., "items": [exponent maps]}."""
    import json
    from .convergence import BraidSumSequence
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle, **EXACT_JSON)
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("items"), list):
            raise ValueError("expected an object with an 'items' list")
        items = [_exponent_map(item) for item in payload["items"]]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load sequence from {path}: {exc}") from exc
    return BraidSumSequence(items, payload.get("label", path))


# ---------------------------------------------------------------------------
# subcommands

def cmd_lift(args) -> int:
    order = args.order
    if args.method == "reversion":
        P = reversion_lift(order)
    else:
        P = strengthen_to(tau(), order)
    rows = [[str(k), fmt_rational(P.coeffs[k])] for k in sorted(P.coeffs)]
    emit(args, [Table(f"lift coefficients through degree {order}",
                      ["degree", "coefficient"], rows)])
    return 0


def cmd_zmap(args) -> int:
    b = parse_braid(args.braid)
    order = args.order
    jmax = args.jmax if args.jmax is not None else order
    if order < 0:
        raise ValueError("order must be nonnegative")
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    coeffs = Z(b, max(order, jmax)).coeffs
    series_rows = [[str(i), fmt_rational(c)]
                   for i, c in enumerate(coeffs[:order + 1])]
    graded = coeffs[:jmax + 1]
    graded_rows = [[str(j), fmt_rational(c)] for j, c in enumerate(graded)]
    focused = focus_order(graded)
    note = (f"focussed at degree {focused} through {jmax}" if focused is not None
            else f"not focussed through degree {jmax}")
    emit(args, [
        Table(f"integral of {render(b)} through degree {order}",
              ["degree", "coefficient"], series_rows),
        Table("graded components", ["degree", "value"], graded_rows, [note]),
    ])
    return 0


def cmd_qexpand(args) -> int:
    order, power = args.order, args.power
    if power < 1:
        # checked here as well, so a bad power fails before strengthening
        raise ValueError("power must be positive")
    expansion = q_expand(strengthen_to(tau(), order), power)
    if isinstance(expansion, PairExpansion):
        rows = [[f"q^{n} - q^-{n}", fmt_rational(c)]
                for n, c in sorted(expansion.pair_coeffs.items())]
    else:
        rows = [["q^0", fmt_rational(expansion.constant)]]
        rows += [[f"q^{n} + q^-{n}", fmt_rational(c)]
                 for n, c in sorted(expansion.sym_coeffs.items())]
    notes = [] if power == 1 else \
        ["reported computation; no reference values exist for lift powers"]
    emit(args, [Table(f"pair expansion of lift order {order}, power {power}",
                      ["component", "coefficient"], rows, notes)])
    return 0


def cmd_asymptotics(args) -> int:
    d = _float_digits(args)
    try:
        orders = [int(x) for x in args.orders.split(",") if x]
    except ValueError as exc:
        raise ValueError(f"bad --orders list: {exc}") from exc
    rows = asymptotic_check(args.j, orders, d)
    table_rows = [[str(row.order), fmt_rational(row.coeff),
                   fmt_float(row.coeff, d), fmt_float(row.target, d),
                   fmt_float(row.abs_error, d)]
                  for row in rows]
    emit(args, [Table(f"pair {args.j} coefficient against its limit",
                      ["order", "coefficient", float_column("approx", d),
                       float_column("target", d), float_column("abs_error", d)],
                      table_rows,
                      ["target = (-1)^((j-1)/2) * 4/(pi*j^2)"])])
    return 0


def cmd_beta(args) -> int:
    from .regularization import leibniz_partial, theta_value
    s = args.s
    if s == 1:
        import mpmath
        d = _float_digits(args)
        rows = []
        with mpmath.workdps(d):
            for r in (1, 10, 100, 1000, 10000):
                exact = 4 * leibniz_partial(r)
                size = f"{len(str(exact.numerator))}/{len(str(exact.denominator))}"
                estimate = mpmath.mpf(exact.numerator) / exact.denominator / mpmath.pi
                rows.append([str(r), size,
                             fmt_float(estimate, d),
                             fmt_float(abs(estimate - 1), d)])
        emit(args, [Table("Leibniz partial sums, scaled by 4",
                          ["terms", "digits num/den", float_column("over_pi", d),
                           float_column("abs_error_to_1", d)],
                          rows,
                          ["partial sums are held as exact rationals; the "
                           "column shows their printed size",
                           "the alternating series bound keeps the error below "
                           "1/(2r+1)/pi"])])
        return 0
    if s < 3 or s % 2 == 0:
        raise ValueError("--s must be 1 or an odd integer >= 3")
    # the relation's left side reduces exactly to this Abel value
    abel = theta_value(s - 2)
    verdict = "PASS" if abel == 0 else "FAIL"
    rows = [[f"Abel value at exponent {s - 2}", fmt_rational(abel)],
            ["reduced relation left side", fmt_rational(abel)],
            ["verdict", verdict]]
    emit(args, [Table(f"residue relation at s = {s}", ["what", "value"], rows,
                      ["the left side reduces exactly to the Abel value of the "
                       "alternating sum with exponent s-2; zero is expected"])])
    return 0 if verdict == "PASS" else 2


def cmd_basis(args) -> int:
    from .basis_solver import (balanced_nodes, build_balanced, build_unbalanced,
                               invert, solve_t_target)
    if args.solve_t:
        if args.unbalanced:
            raise ValueError("--solve-t applies to the balanced basis")
        digits = _float_digits(args)
    r = args.r
    build = build_unbalanced if args.unbalanced else build_balanced
    kind = "unbalanced" if args.unbalanced else "balanced"
    M = build(r, args.with_factorials)
    N = invert(M)
    tables = [
        Table(f"{kind} moment matrix, r = {r}",
              [f"c{j}" for j in range(M.dim)],
              [[fmt_rational(x) for x in row] for row in M.rows]),
        Table(f"inverse, r = {r}",
              [f"c{j}" for j in range(M.dim)],
              [[fmt_rational(x) for x in row] for row in N.rows]),
    ]
    if args.entry:
        try:
            row, col = map(int, args.entry.split(","))
            value = N.entry(row, col)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad --entry: {exc}") from exc
        tables.append(Table(f"inverse entry ({row},{col})",
                            ["row", "col", "value"],
                            [[str(row), str(col), fmt_rational(value)]]))
    if args.solve_t:
        solution, b = solve_t_target(N)
        sol_rows = [[str(node), fmt_rational(c)]
                    for node, c in zip(balanced_nodes(r), solution)]
        tables.append(Table("solution of the degree-1 target system",
                            ["braid power", "coefficient"], sol_rows,
                            [f"as a braid sum: {render(b)}"]))
        lift_order = r if r % 2 == 1 else r - 1
        if lift_order >= 1:
            lift_b = q_expand(strengthen_to(tau(), lift_order)).rebuild()
            diff = combine(b, 1, lift_b, -1)
            cmp_rows = [[str(n)] + [fmt_rational(coefficient(x, n))
                                    for x in (b, lift_b, diff)]
                        for n in sorted(set(b.terms) | set(lift_b.terms))]
            worst = max(map(abs, diff.terms.values()), default=Fraction(0))
            tables.append(Table(
                f"solution against the order {lift_order} lift expansion",
                ["braid power", "solution", "lift", "difference"], cmp_rows,
                [f"largest coefficient distance: {fmt_float(worst, digits)}",
                 "no identity between the columns is asserted; the distance "
                 "is reported as computed"]))
    emit(args, tables)
    return 0


def cmd_trace(args) -> int:
    from .convergence import STOCK_SEQUENCES, biconvergence_report
    window = args.window
    if window < 2:
        raise ValueError("--window must be at least 2")
    if args.jmax < 0:
        # checked here as well, so a bad jmax fails before building a sequence
        raise ValueError("jmax must be nonnegative")
    if args.sequence in STOCK_SEQUENCES:
        seq = STOCK_SEQUENCES[args.sequence](window)
    else:
        seq = load_sequence(args.sequence)
    report = biconvergence_report(seq, args.jmax, window)
    coeff_rows = [[str(n), cls,
                   fmt_rational(seq.items[report.window - 1].terms.get(n, Fraction(0)))]
                  for n, cls in sorted(report.exponent_classes.items())]
    z_rows = [[str(j), cls] for j, cls in sorted(report.z_classes.items())]
    cond = report.condition_c
    if cond.ok:
        cond_rows = [["satisfied", f"{cond.checked_pairs} pairs checked"]]
    else:
        i, j, order = cond.first_violation
        cond_rows = [["violated",
                      f"order(b_{i} - b_{j}) = {order} < {i} "
                      f"({len(cond.violations)} violating pairs)"]]
    verdict_rows = [["(a) coefficient traces", report.verdict_a],
                    ["(b) integral traces", report.verdict_b],
                    ["(c) filtration condition", report.verdict_c]]
    emit(args, [
        Table(f"coefficient traces for {report.label}, window {report.window}",
              ["exponent", "class", "last value"], coeff_rows),
        Table(f"integral traces through degree {report.jmax}",
              ["degree", "class"], z_rows),
        Table("filtration condition", ["status", "detail"], cond_rows),
        Table("verdicts", ["condition", "verdict"], verdict_rows,
              [report.caveat]),
    ])
    return 0


# ---------------------------------------------------------------------------
# reproduce

def _lift_rows():
    P = strengthen_to(tau(), 13)
    rows = [_cell(f"degree {k}", printed, P.coeffs.get(k, Fraction(0)))
            for k, printed in sorted(REF_LIFT.items())]
    same = P.coeffs == closed_form_lift(13).coeffs
    rows.append(["cross-route (closed form)", "equal",
                 "equal" if same else "different", "PASS" if same else "FAIL"])
    return rows


def _pair_rows():
    P = strengthen_to(tau(), 11)
    return [_cell(f"order {order}, pair {n}", None if ref is None else ref[n],
                  computed, PAIR_MISPRINTS.get((order, n)))
            for order, ref in REF_PAIR_ROWS
            for n, computed in
            sorted(q_expand(P.truncate(order)).pair_coeffs.items())]


def _zeta2_rows():
    from .basis_solver import entry_sequence
    entries = entry_sequence(1, 3, range(1, 9))
    return [_cell(f"r = {r}", printed, computed, ZETA2_MISPRINTS.get(r))
            for r, printed, computed in zip(range(1, 9), REF_ZETA2, entries)]


def _onefive_rows():
    from .basis_solver import entry_sequence
    entries = entry_sequence(1, 5, range(2, 10))
    diffs = [b - a for a, b in zip([Fraction(0)] + entries, entries)]
    return ([_cell(f"entry r = {r}", printed, computed)
             for r, printed, computed in zip(range(2, 10), REF_ONEFIVE + [None],
                                             entries)] +
            [_cell(f"difference at r = {r}", printed, diff)
             for r, printed, diff in zip(range(2, 10), REF_ONEFIVE_DIFFS, diffs)])


def _beta_rows():
    from .regularization import theta_value
    return ([_cell(f"Abel value, exponent {k}", "0", theta_value(k))
             for k in BETA_ZERO_KS] +
            [_cell(f"residue relation, s = {s}", "0", theta_value(s - 2))
             for s in BETA_RELATION_SS])


# name -> (title, row generator, notes)
REPRODUCE_TABLES = {
    "lift": ("lift coefficients", _lift_rows, []),
    "pairs": ("pair expansions of the lift truncations", _pair_rows,
              ["FLAGGED rows match the dual-route computation but differ "
               "from a known misprint in the reference"]),
    "zeta2": ("inverse (1,3) entries over the balanced basis", _zeta2_rows, []),
    "onefive": ("inverse (1,5) entries and their first differences",
                _onefive_rows, []),
    "beta": ("vanishing of the regularized sums", _beta_rows, []),
}


def cmd_reproduce(args) -> int:
    tables = []
    for name in args.table or REPRODUCE_TABLES:
        title, rows, notes = REPRODUCE_TABLES[name]
        tables.append(Table(title, ["where", "reference", "computed", "verdict"],
                            rows(), notes))
    verdicts = [row[-1] for table in tables for row in table.rows]
    failed = "FAIL" in verdicts
    tables.append(Table("summary", ["what", "value"],
                        [["tables", str(len(tables))],
                         ["flagged", str(verdicts.count("FLAGGED"))],
                         ["overall", "FAIL" if failed else "PASS"]]))
    emit(args, tables)
    return 2 if failed else 0


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

    def command(name, func, help):
        sub = subs.add_parser(name, parents=[output], help=help)
        sub.set_defaults(func=func)
        return sub

    p = command("lift", cmd_lift, "lift coefficients")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=("strengthen", "reversion"),
                   default="strengthen")

    p = command("zmap", cmd_zmap, "series and graded values of a braid sum")
    p.add_argument("--braid", default="tau")
    p.add_argument("--order", type=int, default=7)
    p.add_argument("--jmax", type=int, default=None)

    p = command("qexpand", cmd_qexpand, "pair expansion of a lift")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--power", type=int, default=1)

    p = command("asymptotics", cmd_asymptotics,
                "pair coefficients against 4/pi limits")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--orders", required=True,
                   help="comma separated lift orders")

    p = command("beta", cmd_beta, "regularized sums and the Leibniz check")
    p.add_argument("--s", type=int, required=True)

    p = command("basis", cmd_basis, "moment matrices and inverse entries")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--unbalanced", action="store_true")
    p.add_argument("--entry", default=None, help="ROW,COL (1-based)")
    p.add_argument("--solve-t", action="store_true", dest="solve_t")
    p.add_argument("--with-factorials", action="store_true",
                   dest="with_factorials")

    p = command("trace", cmd_trace, "finite-window convergence diagnostics")
    p.add_argument("--sequence", default="tauhat",
                   help="tauhat, pairs, harmonic, or a JSON file path")
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--window", type=int, default=8)

    p = command("reproduce", cmd_reproduce,
                "check every bundled reference table")
    p.add_argument("--table", action="append",
                   choices=sorted(REPRODUCE_TABLES),
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
        return args.func(args)
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
