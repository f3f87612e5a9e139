"""braidinv asymptotics: pair coefficients against their 4/pi limits."""

from .. import cli, floats
from ..pair_expansions import asymptotic_check


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
    pi_jj = floats.rounded(floats.rounded(floats.pi(p) * j, p) * j, p)
    target = floats.rounded(sign * 4 / pi_jj, p)
    table_rows = []
    for order, c in rows:
        approx = floats.convert(c, p)
        table_rows.append([str(order), str(c),
                           floats.nstr(approx, d), floats.nstr(target, d),
                           floats.nstr(abs(floats.rounded(approx - target, p)),
                                       d)])
    return 0, [(f"pair {j} coefficient against its limit",
                ["order", "coefficient", floats.column("approx", d),
                 floats.column("target", d), floats.column("abs_error", d)],
                table_rows, ["target = (-1)^((j-1)/2) * 4/(pi*j^2)"])]
