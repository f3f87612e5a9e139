"""braidinv basis: moment matrices, their inverses and the degree-1 system."""

from .. import basis_solver, cli
from ..render import rationals


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
        from fractions import Fraction

        from ..braid_ring import coefficient, combine, render
        from ..pair_expansions import tau_expansions
        solution, b = basis_solver.solve_t_target(N)
        sol_rows = [[str(node), str(c)] for node, c in
                    zip(basis_solver.balanced_nodes(r), solution)]
        tables.append(("solution of the degree-1 target system",
                       ["braid power", "coefficient"], sol_rows,
                       [f"as a braid sum: {render(b)}"]))
        lift_order = r if r % 2 == 1 else r - 1
        if lift_order >= 1:
            lift_b = tau_expansions([lift_order])[0].braid_sum()
            diff = combine(b, 1, lift_b, -1)
            cmp_rows = [[str(n)] + [str(coefficient(x, n))
                                    for x in (b, lift_b, diff)]
                        for n in sorted(b.nums.keys() | lift_b.nums.keys())]
            worst = Fraction(max(map(abs, diff.nums.values()), default=0),
                             diff.den)
            tables.append((
                f"solution against the order {lift_order} lift expansion",
                ["braid power", "solution", "lift", "difference"], cmp_rows,
                [f"largest coefficient distance: {floats.cell(worst, digits)}",
                 "no identity between the columns is asserted; the distance "
                 "is reported as computed"]))
    return 0, tables
