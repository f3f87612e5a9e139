"""braidinv lift: the lift coefficients through an odd degree."""

from ..inverse_engine import closed_form_lift, solved_lift
from ..render import rationals


def run(args):
    order = args.order
    lift = closed_form_lift if args.method == "reversion" else solved_lift
    P = lift(order)
    rows = [[str(k), x] for k, x in enumerate(rationals(P)) if x != "0"]
    return 0, [(f"lift coefficients through degree {order}",
                ["degree", "coefficient"], rows, [])]
