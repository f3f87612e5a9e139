"""braidinv lift: the certified lift through an odd degree, either --method."""

from ..inverse_engine import solved_lift
from ..render import rationals


def run(args):
    order = args.order
    rows = [[str(k), x] for k, x in enumerate(rationals(solved_lift(order)))
            if x != "0"]
    return 0, [(f"lift coefficients through degree {order}",
                ["degree", "coefficient"], rows, [])]
