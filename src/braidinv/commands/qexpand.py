"""braidinv qexpand: the pair expansion of a lift or of its power."""

from ..braid_ring import tau
from ..cli import emit
from ..inverse_engine import PairExpansion, q_expand, strengthen_to
from ..render import Table, fmt_rational


def run(args) -> int:
    order, power = args.order, args.power
    if power < 1:
        # checked here as well, so a bad power fails before strengthening
        raise ValueError("power must be positive")
    expansion = q_expand(strengthen_to(tau(), order), power)
    if isinstance(expansion, PairExpansion):
        rows = [[f"q^{n} - q^-{n}", fmt_rational(c)]
                for n, c in sorted(expansion.pair_coeffs.items())]
    else:
        rows = [["q^0", fmt_rational(expansion.constant)]]
        rows += [[f"q^{n} + q^-{n}", fmt_rational(c)]
                 for n, c in sorted(expansion.sym_coeffs.items())]
    notes = [] if power == 1 else \
        ["reported computation; no reference values exist for lift powers"]
    emit(args, [Table(f"pair expansion of lift order {order}, power {power}",
                      ["component", "coefficient"], rows, notes)])
    return 0
