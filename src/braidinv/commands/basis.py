"""braidinv basis: moment matrices, their inverses and the degree-1 system."""

from .. import basis_solver, cli
from ..render import (_reduced, braid_text, common_denominator, rational,
                      rationals)


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
        lifted = [(lift.half.get(abs(n), 0) * (lift.sign if n < 0 else 1),
                   lift.den) for n in nodes]
        # the solution and the lift over one denominator, which the
        # differences and their distance keep
        ints, den = common_denominator([row[1] for row in N] + lifted)
        compared = sorted(zip(nodes, cells, lifted, ints, ints[len(nodes):]))
        cmp_rows = [[str(n), cell, rational(*pair), rational(a - c, den)]
                    for n, cell, pair, a, c in compared if a or c]
        worst = max(abs(a - c) for *_, a, c in compared)
        tables.append((
            f"solution against the order {lift_order} lift expansion",
            ["braid power", "solution", "lift", "difference"], cmp_rows,
            [f"largest coefficient distance: "
             f"{floats.cell(*_reduced(worst, den), digits)}",
             "no identity between the columns is asserted; the distance "
             "is reported as computed"]))
    return 0, tables
