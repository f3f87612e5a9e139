"""braidinv qexpand: the pair expansion of a lift or of its power."""

from ..pair_expansions import tau_expansions
from ..render import rational


def run(args):
    order, power = args.order, args.power
    [b] = tau_expansions([order], power)
    sign = "-" if b.sign < 0 else "+"
    rows = [] if b.sign < 0 else [["q^0", rational(b.zero, b.den)]]
    rows += [[f"q^{n} {sign} q^-{n}", rational(c, b.den)]
             for n, c in sorted(b.half.items())]
    notes = [] if power == 1 else \
        ["reported computation; no reference values exist for lift powers"]
    return 0, [(f"pair expansion of lift order {order}, power {power}",
                ["component", "coefficient"], rows, notes)]
