"""braidinv zmap: the integral of a braid sum and its graded values."""

from ..braid_ring import render
from ..inputs import parse_braid
from ..kontsevich import Z, focus_order


def run(args):
    b = parse_braid(args.braid)
    order = args.order
    jmax = args.jmax if args.jmax is not None else order
    if order < 0:
        raise ValueError("order must be nonnegative")
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    coeffs = Z(b, max(order, jmax))
    # each coefficient is printed once; both tables take a prefix
    rows = [[str(i), str(c)] for i, c in enumerate(coeffs)]
    focused = focus_order(coeffs[:jmax + 1])
    note = (f"focussed at degree {focused} through {jmax}" if focused is not None
            else f"not focussed through degree {jmax}")
    return 0, [(f"integral of {render(b)} through degree {order}",
                ["degree", "coefficient"], rows[:order + 1], []),
               ("graded components", ["degree", "value"], rows[:jmax + 1],
                [note])]
