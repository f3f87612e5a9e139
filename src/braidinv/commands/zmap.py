"""braidinv zmap: the integral of a braid sum and its graded values."""

from ..braid_ring import render
from ..cli import parse_braid
from ..kontsevich import Z, focus_order
from ..render import fmt_rational


def run(args):
    b = parse_braid(args.braid)
    order = args.order
    jmax = args.jmax if args.jmax is not None else order
    if order < 0:
        raise ValueError("order must be nonnegative")
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    coeffs = Z(b, max(order, jmax))
    series_rows = [[str(i), fmt_rational(c)]
                   for i, c in enumerate(coeffs[:order + 1])]
    graded = coeffs[:jmax + 1]
    graded_rows = [[str(j), fmt_rational(c)] for j, c in enumerate(graded)]
    focused = focus_order(graded)
    note = (f"focussed at degree {focused} through {jmax}" if focused is not None
            else f"not focussed through degree {jmax}")
    return 0, [(f"integral of {render(b)} through degree {order}",
                ["degree", "coefficient"], series_rows, []),
               ("graded components", ["degree", "value"], graded_rows, [note])]
