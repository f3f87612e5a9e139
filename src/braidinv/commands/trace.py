"""braidinv trace: finite-window convergence diagnostics of a sequence."""

from ..braid_ring import coefficient
from ..convergence import CAVEAT, biconvergence_report, verdict

# stock name -> (label, builder in braidinv.sequences of the first count
# items); any other --sequence names a file, read without compiling them
STOCK_SEQUENCES = {"tauhat": ("lift-truncations", "lift_truncation_sequence"),
                   "pairs": ("pair-partials", "pair_partial_sequence"),
                   "harmonic": ("harmonic-sigma", "harmonic_sigma_sequence")}


def run(args):
    window = args.window
    if window < 2:
        raise ValueError("--window must be at least 2")
    if args.jmax < 0:
        # checked here as well, so a bad jmax fails before building a sequence
        raise ValueError("jmax must be nonnegative")
    if args.sequence in STOCK_SEQUENCES:
        from .. import sequences
        label, builder = STOCK_SEQUENCES[args.sequence]
        items = getattr(sequences, builder)(window)
    else:
        # only a sequence file compiles the input parser
        from ..inputs import load_sequence
        label, items = load_sequence(args.sequence)
    items = items[:window]
    n_classes, z_classes, violations = biconvergence_report(items, args.jmax)
    coeff_rows = [[str(n), cls, str(coefficient(items[-1], n))]
                  for n, cls in sorted(n_classes.items())]
    z_rows = [[str(j), cls] for j, cls in sorted(z_classes.items())]
    if violations:
        i, j, order = violations[0]
        cond_rows = [["violated",
                      f"order(b_{i} - b_{j}) = {order} < {i} "
                      f"({len(violations)} violating pairs)"]]
    else:
        pairs = len(items) * (len(items) - 1) // 2
        cond_rows = [["satisfied", f"{pairs} pairs checked"]]
    verdict_rows = [["(a) coefficient traces", verdict(n_classes)],
                    ["(b) integral traces", verdict(z_classes)],
                    ["(c) filtration condition",
                     "fail" if violations else "pass"]]
    return 0, [(f"coefficient traces for {label}, window {len(items)}",
                ["exponent", "class", "last value"], coeff_rows, []),
               (f"integral traces through degree {args.jmax}",
                ["degree", "class"], z_rows, []),
               ("filtration condition", ["status", "detail"], cond_rows, []),
               ("verdicts", ["condition", "verdict"], verdict_rows, [CAVEAT])]
