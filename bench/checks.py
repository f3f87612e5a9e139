"""Independent checks of braidinv CLI output, written from the definitions.

Nothing here imports braidinv.  Each check parses the printed tables and
compares them with values derived directly from the mathematics:

- lift coefficients of 2 arcsinh(x/2): (-1)^k (2k)! / (16^k k!^2 (2k+1));
- pair expansions by expanding (q - q^-1)^m binomially;
- balanced moment-matrix inverses: M*N = I over the integers, and the
  (1,3) entry equal to -sum_{k<=r} 1/k^2;
- finite-window trace reports against sequences whose filtration orders are
  known by construction.

A check raises CheckError on the first mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction


class CheckError(Exception):
    """A CLI output disagrees with its independent expectation."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# parsing the three output formats into (title, columns, rows, notes)

def parse_tables(out: str, fmt: str) -> list[tuple]:
    if fmt == "json":
        return [(t["title"], t["columns"], t["rows"], t["notes"])
                for t in json.loads(out)["tables"]]
    if fmt == "csv":
        tables = []
        for row in csv.reader(io.StringIO(out)):
            if not row:
                continue
            if row[0] == "table" and len(row) == 2:
                tables.append((row[1], None, [], []))
            elif tables[-1][1] is None:
                tables[-1] = (tables[-1][0], row, [], [])
            elif row[0] == "note" and len(row) == 2:
                tables[-1][3].append(row[1])
            else:
                tables[-1][2].append(row)
        return tables
    tables = []
    for block in out.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        expect(len(lines) >= 3 and set(lines[1]) == {"-"},
               f"malformed text table: {lines[:2]!r}")
        rows = [line for line in lines[3:] if not line.startswith("note: ")]
        notes = [line[6:] for line in lines[3:] if line.startswith("note: ")]
        tables.append((lines[0], re.split(r" {2,}", lines[2]),
                       [re.split(r" {2,}", line) for line in rows], notes))
    return tables


def table(out: str, fmt: str, title_prefix: str):
    found = [t for t in parse_tables(out, fmt) if t[0].startswith(title_prefix)]
    expect(len(found) == 1, f"expected one table titled {title_prefix!r}")
    return found[0]


# ---------------------------------------------------------------------------
# reference values

def lift_coefficient(degree: int) -> Fraction:
    """Degree-(2k+1) Taylor coefficient of 2 arcsinh(x/2); zero at even degrees."""
    if degree % 2 == 0:
        return Fraction(0)
    k = (degree - 1) // 2
    return Fraction((-1) ** k * math.factorial(2 * k),
                    16 ** k * math.factorial(k) ** 2 * (2 * k + 1))


def expand_in_q(poly: dict) -> dict:
    """Laurent coefficients of sum_m poly[m] (q - q^-1)^m, by the binomial theorem."""
    out = {}
    for m, c in poly.items():
        for j in range(m + 1):
            n = m - 2 * j
            out[n] = out.get(n, Fraction(0)) + c * (-1) ** j * math.comb(m, j)
    return {n: c for n, c in out.items() if c}


def lift_poly(order: int) -> dict:
    return {k: lift_coefficient(k) for k in range(1, order + 1, 2)}


def poly_power(poly: dict, power: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(power):
        nxt = {}
        for i, a in out.items():
            for j, b in poly.items():
                nxt[i + j] = nxt.get(i + j, Fraction(0)) + a * b
        out = nxt
    return out


def pair_coefficient(order: int, j: int) -> Fraction:
    """Coefficient of q^j - q^-j in the order-`order` lift."""
    return expand_in_q(lift_poly(order)).get(j, Fraction(0))


def moment_matrix(nodes, with_factorials: bool) -> list[list[Fraction]]:
    return [[Fraction(n ** i, math.factorial(i) if with_factorials else 1)
             for n in nodes] for i in range(len(nodes))]


def balanced_nodes(r: int) -> list[int]:
    return [0] + [s * k for k in range(1, r + 1) for s in (1, -1)]


def minus_zeta2_partial(r: int) -> Fraction:
    return -sum((Fraction(1, k * k) for k in range(1, r + 1)), Fraction(0))


def integer_identity_check(M, N) -> None:
    """M*N = I, verified in integers after clearing each matrix's denominators."""
    dm = math.lcm(*(x.denominator for row in M for x in row))
    dn = math.lcm(*(x.denominator for row in N for x in row))
    Mi = [[x.numerator * (dm // x.denominator) for x in row] for row in M]
    Ni = [[x.numerator * (dn // x.denominator) for x in row] for row in N]
    cols = list(zip(*Ni))
    for i, row in enumerate(Mi):
        for j, col in enumerate(cols):
            value = sum(a * b for a, b in zip(row, col))
            expect(value == (dm * dn if i == j else 0),
                   f"M*N differs from I at ({i + 1},{j + 1})")


# ---------------------------------------------------------------------------
# checks, one per request kind

def _fractions(cells):
    return [Fraction(c) for c in cells]


def check_lift(out, fmt, order):
    _, _, rows, _ = table(out, fmt, "lift coefficients through degree")
    got = {int(d): Fraction(c) for d, c in rows}
    expect(got == lift_poly(order), f"lift coefficients differ through {order}")


def check_qexpand(out, fmt, order, power):
    _, _, rows, _ = table(out, fmt, "pair expansion of lift order")
    expected = expand_in_q(poly_power(lift_poly(order), power))
    got = {}
    for component, value in rows:
        n = 0 if component == "q^0" else int(component[2:].split(" ")[0])
        got[n] = Fraction(value)
    if power % 2 == 0:
        expect(got.pop(0) == expected.get(0, Fraction(0)),
               "constant term of the even power differs")
        expected.pop(0, None)
    expected = {n: c for n, c in expected.items() if n > 0}
    expect(got == expected, f"pair expansion differs (order {order}, power {power})")


def check_asymptotics(out, fmt, j, orders):
    _, _, rows, _ = table(out, fmt, f"pair {j} coefficient against its limit")
    expect([int(r[0]) for r in rows] == sorted(orders), "asymptotics rows differ")
    target = (-1) ** ((j - 1) // 2) * 4 / (math.pi * j * j)
    for r, coeff, approx, printed_target, abs_error in rows:
        exact = Fraction(coeff)
        expect(exact == pair_coefficient(int(r), j),
               f"pair {j} coefficient at order {r} differs")
        expect(math.isclose(float(printed_target), target, rel_tol=1e-12),
               "limit 4/(pi j^2) differs")
        expect(math.isclose(float(approx), float(exact), rel_tol=1e-12),
               "float column differs from the exact coefficient")
        expect(math.isclose(float(abs_error), abs(float(exact) - target),
                            rel_tol=1e-9, abs_tol=1e-15),
               "abs_error differs from |coefficient - limit|")


def check_basis(out, fmt, r, unbalanced, with_factorials, entry, solve_t):
    nodes = list(range(r + 1)) if unbalanced else balanced_nodes(r)
    kind = "unbalanced" if unbalanced else "balanced"
    _, _, m_rows, _ = table(out, fmt, f"{kind} moment matrix, r = {r}")
    _, _, n_rows, _ = table(out, fmt, f"inverse, r = {r}")
    M = [_fractions(row) for row in m_rows]
    N = [_fractions(row) for row in n_rows]
    expect(M == moment_matrix(nodes, with_factorials), "moment matrix differs")
    integer_identity_check(M, N)
    if entry:
        _, _, rows, _ = table(out, fmt, "inverse entry (1,3)")
        value = Fraction(rows[0][2])
        expect(value == N[0][2], "printed (1,3) entry is not the inverse's entry")
        if not unbalanced:
            scale = 2 if with_factorials else 1
            expect(value == scale * minus_zeta2_partial(r),
                   f"(1,3) entry at r = {r} is not -{scale}*sum 1/k^2")
    if solve_t:
        _, _, rows, _ = table(out, fmt, "solution of the degree-1 target system")
        expect([int(n) for n, _ in rows] == nodes, "solution nodes differ")
        x = {int(n): Fraction(c) for n, c in rows}
        for i, mrow in enumerate(M):
            moment = sum(m * x[n] for m, n in zip(mrow, nodes))
            expect(moment == (1 if i == 1 else 0), f"solution fails row {i}")
        lift_order = r if r % 2 else r - 1
        if lift_order >= 1:
            lift = expand_in_q(lift_poly(lift_order))
            _, _, rows, _ = table(out, fmt, "solution against the order")
            expected = sorted({n for n, c in x.items() if c} | set(lift))
            expect([int(row[0]) for row in rows] == expected,
                   "comparison exponents differ")
            for n, sol, lif, diff in rows:
                n = int(n)
                expect(Fraction(sol) == x.get(n, 0) and
                       Fraction(lif) == lift.get(n, 0) and
                       Fraction(diff) == x.get(n, 0) - lift.get(n, 0),
                       f"comparison row {n} differs")


ZETA2_PRINTED_MISPRINT = 7


def check_reproduce(out, fmt, tables, flagged):
    _, _, rows, _ = table(out, fmt, "summary")
    summary = dict(rows)
    expect(summary == {"tables": str(len(tables)), "flagged": str(flagged),
                       "overall": "PASS"},
           f"reproduce summary differs: {summary}")
    if "zeta2" in tables:
        _, _, rows, _ = table(out, fmt, "inverse (1,3) entries")
        for r, (where, _, computed, verdict) in enumerate(rows, start=1):
            expect(where == f"r = {r}" and
                   Fraction(computed) == minus_zeta2_partial(r),
                   f"zeta2 row r = {r} differs")
            expect(verdict == ("FLAGGED" if r == ZETA2_PRINTED_MISPRINT
                               else "PASS"), f"zeta2 verdict at r = {r}")
    if "lift" in tables:
        _, _, rows, _ = table(out, fmt, "lift coefficients")
        for where, _, computed, verdict in rows[:-1]:
            expect(Fraction(computed) == lift_coefficient(int(where.split()[1])),
                   f"reproduce {where} differs")


def check_trace(out, fmt, items, label, jmax, difference_order):
    """Trace report against the sequence `items` (dicts exponent -> Fraction).

    difference_order is None when order(b_i - b_j) >= i holds for all i < j
    by construction, so condition (c) is satisfied; otherwise every
    difference has that one order o, and exactly the pairs with i > o
    violate the condition.
    """
    window = len(items)
    title, _, rows, _ = table(out, fmt, "coefficient traces for ")
    expect(title == f"coefficient traces for {label}, window {window}",
           f"trace title differs: {title!r}")
    exponents = sorted({n for item in items for n in item})
    expect([int(row[0]) for row in rows] == exponents, "trace exponents differ")
    for n, _, last in rows:
        expect(Fraction(last) == items[-1].get(int(n), 0),
               f"last value at exponent {n} differs")
    _, _, rows, _ = table(out, fmt, "integral traces through degree")
    expect([int(row[0]) for row in rows] == list(range(jmax + 1)),
           "integral trace degrees differ")
    _, _, rows, _ = table(out, fmt, "filtration condition")
    o = difference_order
    if o is None:
        expected = [["satisfied", f"{window * (window - 1) // 2} pairs checked"]]
    else:
        violations = sum(window - i for i in range(o + 1, window))
        expected = [["violated", f"order(b_{o + 1} - b_{o + 2}) = {o} < {o + 1} "
                                 f"({violations} violating pairs)"]]
    expect([list(row) for row in rows] == expected,
           f"condition (c) row differs: {rows}")
    _, _, rows, _ = table(out, fmt, "verdicts")
    verdicts = dict(rows)
    expect(verdicts["(c) filtration condition"] == ("pass" if o is None
                                                    else "fail"),
           "condition (c) verdict differs")
    expect({verdicts["(a) coefficient traces"],
            verdicts["(b) integral traces"]} <= {"pass", "fail"},
           "verdicts (a), (b) must be pass or fail")


# ---------------------------------------------------------------------------
# the stock sequences of `trace --sequence`, rebuilt from their definitions

def tauhat_items(window):
    return [expand_in_q(lift_poly(2 * i - 1)) for i in range(1, window + 1)]


def pairs_items(window):
    items, acc = [], {}
    for m in range(window):
        n = 2 * m + 1
        step = Fraction(4 * (-1) ** m, n * n)
        acc = dict(acc)
        acc[n] = acc.get(n, 0) + step
        acc[-n] = acc.get(-n, 0) - step
        items.append(acc)
    return items


def harmonic_items(window):
    items, acc = [], Fraction(0)
    for m in range(1, window + 1):
        acc += Fraction((-1) ** (m + 1), m)
        items.append({1: acc})
    return items
