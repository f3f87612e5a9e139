"""braidinv asymptotics: pair coefficients against their 4/pi limits."""

from ..cli import _float_digits
from ..inverse_engine import asymptotic_check
from ..render import float_column, fmt_float, fmt_rational


def run(args):
    d = _float_digits(args)
    try:
        orders = [int(x) for x in args.orders.split(",") if x]
    except ValueError as exc:
        raise ValueError(f"bad --orders list: {exc}") from exc
    j = args.j
    rows = asymptotic_check(j, orders)
    import mpmath
    table_rows = []
    with mpmath.workdps(d):
        sign = -1 if (j - 1) // 2 % 2 else 1
        target = sign * 4 / (mpmath.pi * j * j)
        for order, c in rows:
            approx = mpmath.mpf(c.numerator) / c.denominator
            table_rows.append([str(order), fmt_rational(c),
                               fmt_float(approx, d), fmt_float(target, d),
                               fmt_float(abs(approx - target), d)])
    return 0, [(f"pair {j} coefficient against its limit",
                ["order", "coefficient", float_column("approx", d),
                 float_column("target", d), float_column("abs_error", d)],
                table_rows, ["target = (-1)^((j-1)/2) * 4/(pi*j^2)"])]
