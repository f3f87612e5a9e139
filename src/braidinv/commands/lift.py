"""braidinv lift: the lift coefficients through an odd degree."""

from ..inverse_engine import closed_form_lift, tau_lift


def run(args):
    order = args.order
    if args.method == "reversion":
        P = closed_form_lift(order)
    else:
        P, _ = tau_lift([order])
    rows = [[str(k), str(c)] for k, c in enumerate(P) if c]
    return 0, [(f"lift coefficients through degree {order}",
                ["degree", "coefficient"], rows, [])]
