"""braidinv asymptotics: pair coefficients against their 4/pi limits."""

from ..cli import _float_digits, emit
from ..inverse_engine import asymptotic_check
from ..render import Table, float_column, fmt_float, fmt_rational


def run(args) -> int:
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
