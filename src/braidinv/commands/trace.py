"""braidinv trace: finite-window convergence diagnostics of a sequence."""

from ..braid_ring import coefficient
from ..cli import emit, load_sequence
from ..convergence import STOCK_SEQUENCES, biconvergence_report
from ..render import Table, fmt_rational


def run(args) -> int:
    window = args.window
    if window < 2:
        raise ValueError("--window must be at least 2")
    if args.jmax < 0:
        # checked here as well, so a bad jmax fails before building a sequence
        raise ValueError("jmax must be nonnegative")
    if args.sequence in STOCK_SEQUENCES:
        seq = STOCK_SEQUENCES[args.sequence](window)
    else:
        seq = load_sequence(args.sequence)
    report = biconvergence_report(seq, args.jmax, window)
    coeff_rows = [[str(n), cls,
                   fmt_rational(coefficient(seq.items[report.window - 1], n))]
                  for n, cls in sorted(report.exponent_classes.items())]
    z_rows = [[str(j), cls] for j, cls in sorted(report.z_classes.items())]
    cond = report.condition_c
    if cond.ok:
        cond_rows = [["satisfied", f"{cond.checked_pairs} pairs checked"]]
    else:
        i, j, order = cond.first_violation
        cond_rows = [["violated",
                      f"order(b_{i} - b_{j}) = {order} < {i} "
                      f"({len(cond.violations)} violating pairs)"]]
    verdict_rows = [["(a) coefficient traces", report.verdict_a],
                    ["(b) integral traces", report.verdict_b],
                    ["(c) filtration condition", report.verdict_c]]
    emit(args, [
        Table(f"coefficient traces for {report.label}, window {report.window}",
              ["exponent", "class", "last value"], coeff_rows),
        Table(f"integral traces through degree {report.jmax}",
              ["degree", "class"], z_rows),
        Table("filtration condition", ["status", "detail"], cond_rows),
        Table("verdicts", ["condition", "verdict"], verdict_rows,
              [report.caveat]),
    ])
    return 0
