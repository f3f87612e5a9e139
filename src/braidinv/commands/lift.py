"""braidinv lift: the lift coefficients through an odd degree."""

from ..inverse_engine import closed_form_lift, solved_lift


def run(args):
    order = args.order
    lift = closed_form_lift if args.method == "reversion" else solved_lift
    P = lift(order)
    rows = [[str(k), str(c)] for k, c in enumerate(P) if c]
    return 0, [(f"lift coefficients through degree {order}",
                ["degree", "coefficient"], rows, [])]
