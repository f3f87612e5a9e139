"""braidinv qexpand: the pair expansion of a lift or of its power."""

from ..braid_ring import coefficient
from ..pair_expansions import tau_expansions


def run(args):
    order, power = args.order, args.power
    [b] = tau_expansions([order], power)
    sign = "-" if power % 2 else "+"
    rows = [] if power % 2 else [["q^0", str(coefficient(b, 0))]]
    rows += [[f"q^{n} {sign} q^-{n}", str(coefficient(b, n))]
             for n in sorted(b.nums) if n > 0]
    notes = [] if power == 1 else \
        ["reported computation; no reference values exist for lift powers"]
    return 0, [(f"pair expansion of lift order {order}, power {power}",
                ["component", "coefficient"], rows, notes)]
