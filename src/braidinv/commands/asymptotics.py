"""braidinv asymptotics: pair coefficients against their 4/pi limits."""

from .. import cli, floats
from ..pair_expansions import asymptotic_check
from ..render import rationals


def run(args):
    d = floats.requested_digits(args)
    try:
        orders = [cli.integer(x, "order") for x in args.orders.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --orders list: {exc}") from exc
    j = args.j
    rows = asymptotic_check(j, orders)
    p = floats.precision(d)
    sign = -1 if (j - 1) // 2 % 2 else 1
    # mpmath's sign * 4 / (pi * j * j), one rounding per operation
    pi_jj = floats.times(floats.times(floats.pi(p), j, p), j, p)
    target = floats.quotient((sign * 4, 0), pi_jj, p)
    table_rows = []
    for (order, c), cell in zip(rows, rationals(c for _, c in rows)):
        approx = floats.convert(*c, p)
        error = floats.absolute(floats.difference(approx, target, p))
        table_rows.append([str(order), cell, floats.nstr(approx, d),
                           floats.nstr(target, d), floats.nstr(error, d)])
    return 0, [(f"pair {j} coefficient against its limit",
                ["order", "coefficient", floats.column("approx", d),
                 floats.column("target", d), floats.column("abs_error", d)],
                table_rows, ["target = (-1)^((j-1)/2) * 4/(pi*j^2)"])]
