"""braidinv basis: moment matrices, their inverses and the degree-1 system."""

import math

from .. import basis_solver, cli
from ..render import _reduced, braid_text, rational, rationals


def run(args):
    if args.solve_t:
        if args.unbalanced:
            raise ValueError("--solve-t applies to the balanced basis")
        from .. import floats
        digits = floats.requested_digits(args)
    if args.entry:
        # parsed before inverting, so a typo fails at once
        try:
            row, col = [cli.integer(x, "index") for x in args.entry.split(",")]
        except ValueError:
            raise ValueError(f"bad --entry: expected ROW,COL, "
                             f"got {args.entry!r}") from None
    r = args.r
    build = (basis_solver.build_unbalanced if args.unbalanced
             else basis_solver.build_balanced)
    kind = "unbalanced" if args.unbalanced else "balanced"
    M = build(r, args.with_factorials)
    if args.entry and not (1 <= row <= M.dim and 1 <= col <= M.dim):
        raise ValueError(f"bad --entry: entry ({row},{col}) outside a "
                         f"{M.dim}x{M.dim} matrix")
    N = basis_solver.invert(M)
    columns = [f"c{j}" for j in range(M.dim)]
    inverse = [rationals(row) for row in N]
    tables = [
        (f"{kind} moment matrix, r = {r}", columns,
         [rationals(row) for row in M.rows], []),
        (f"inverse, r = {r}", columns, inverse, []),
    ]
    if args.entry:
        tables.append((f"inverse entry ({row},{col})", ["row", "col", "value"],
                       [[str(row), str(col), inverse[row - 1][col - 1]]], []))
    if args.solve_t:
        if r < 1:
            raise ValueError("the degree-1 target needs r >= 1")
        from ..pair_expansions import tau_expansions
        # the solution of the degree-1 target system is column 1 of N
        nodes = basis_solver.balanced_nodes(r)
        cells = [row[1] for row in inverse]
        tables.append(("solution of the degree-1 target system",
                       ["braid power", "coefficient"],
                       [[str(n), c] for n, c in zip(nodes, cells)],
                       [f"as a braid sum: {braid_text(zip(nodes, cells))}"]))
        lift_order = r if r % 2 == 1 else r - 1
        lift = tau_expansions([lift_order])[0]
        column = dict(zip(nodes, zip((row[1] for row in N), cells)))
        # the differences over one denominator, which the distance keeps
        den = math.lcm(lift.den, *(d for (_, d), _ in column.values()))
        cmp_rows, worst = [], 0
        for n in sorted(nodes):
            (a, d), cell = column[n]
            c = lift.half.get(abs(n), 0) * (lift.sign if n < 0 else 1)
            if a or c:
                diff = a * (den // d) - c * (den // lift.den)
                cmp_rows.append([str(n), cell, rational(c, lift.den),
                                 rational(diff, den)])
                worst = max(worst, abs(diff))
        tables.append((
            f"solution against the order {lift_order} lift expansion",
            ["braid power", "solution", "lift", "difference"], cmp_rows,
            [f"largest coefficient distance: "
             f"{floats.cell(*_reduced(worst, den), digits)}",
             "no identity between the columns is asserted; the distance "
             "is reported as computed"]))
    return 0, tables
