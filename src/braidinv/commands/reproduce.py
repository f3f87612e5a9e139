"""braidinv reproduce: computed tables against the bundled reference values.

The reference values are recorded from the source material this artifact
reproduces, their printed forms kept verbatim.  Two reference cells are
known misprints there; when the computation disagrees with the printed
value but matches the independently cross-checked correction, the row is
marked FLAGGED rather than FAIL and does not affect the exit code.
"""

from ..render import rational


REF_LIFT = {1: "1", 3: "-1/24", 5: "3/640", 7: "-5/7168",
            9: "35/294912", 11: "-63/2883584", 13: "231/54525952"}

REF_PAIR_ROWS = [
    (1, {1: "1"}),
    (3, {1: "9/8", 3: "-1/24"}),
    (5, None),
    (7, {1: "1225/1024", 3: "-245/3072", 5: "49/5120", 7: "-5/7168"}),
    (9, {1: "19845/16384", 3: "-735/8192", 5: "567/40960",
         7: "-405/229376", 9: "35/294912"}),
    (11, {1: "160083/131072", 3: "-12705/13107", 5: "22869/1310720",
          7: "-5445/1835008", 9: "847/2359296", 11: "-63/2883584"}),
]
PAIR_MISPRINTS = {(11, 3): "-12705/131072"}

REF_ZETA2 = ["-1", "-5/4", "-49/36", "-205/144",
             "-5269/3600", "-5369/3600", "266681/176400", "-1077749/705600"]
ZETA2_MISPRINTS = {7: "-266681/176400"}

REF_ONEFIVE = ["1/4", "7/18", "91/192", "1529/2880",
               "37037/64800", "54613/90720", "63566689/101606400"]
REF_ONEFIVE_DIFFS = ["1/4", "5/36", "49/576", "41/720",
                     "5269/129600", "767/25200", "266681/11289600",
                     "1077749/57153600"]

BETA_ZERO_KS = (1, 3, 5, 7, 9, 11, 13)
BETA_RELATION_SS = (3, 5, 7, 9)


def _equal(printed: str, num: int, den: int) -> bool:
    """Whether the reference string "p/q" or "p" has the value num/den."""
    p, _, q = printed.partition("/")
    return int(p) * den == num * int(q or 1)


def _cell(where: str, printed: str | None, computed: tuple,
          corrected: str | None = None) -> list[str]:
    """One reproduce row for the computed (numerator, denominator) pair,
    den > 0; INFO when no printed value exists."""
    if printed is None:
        verdict = "INFO"
    elif _equal(printed, *computed):
        verdict = "PASS"
    elif corrected is not None and _equal(corrected, *computed):
        verdict = "FLAGGED"
    else:
        verdict = "FAIL"
    return [where, printed or "(none)", rational(*computed), verdict]


def _lift_rows():
    from ..inverse_engine import solved_lift
    P = solved_lift(max(REF_LIFT))
    rows = [_cell(f"degree {k}", printed, P[k])
            for k, printed in sorted(REF_LIFT.items())]
    # the one route's certificate: solved_lift raises unless the closed
    # form passes (4 + t^2)P'' + tP' = 0
    rows.append(["cross-route (closed form)", "equal", "equal", "PASS"])
    return rows


def _pair_rows():
    from ..pair_expansions import tau_expansions
    expanded = tau_expansions([order for order, _ in REF_PAIR_ROWS])
    return [_cell(f"order {order}, pair {n}", None if ref is None else ref[n],
                  (c, b.den), PAIR_MISPRINTS.get((order, n)))
            for (order, ref), b in zip(REF_PAIR_ROWS, expanded)
            for n, c in sorted(b.half.items())]


def _zeta2_rows():
    from ..basis_solver import entry_sequence
    entries = entry_sequence(1, 3, range(1, 9))
    return [_cell(f"r = {r}", printed, computed, ZETA2_MISPRINTS.get(r))
            for r, printed, computed in zip(range(1, 9), REF_ZETA2, entries)]


def _onefive_rows():
    from ..basis_solver import entry_sequence
    entries = entry_sequence(1, 5, range(2, 10))
    diffs = [(b * c - a * d, d * c)
             for (a, c), (b, d) in zip([(0, 1)] + entries, entries)]
    return ([_cell(f"entry r = {r}", printed, computed)
             for r, printed, computed in zip(range(2, 10), REF_ONEFIVE + [None],
                                             entries)] +
            [_cell(f"difference at r = {r}", printed, diff)
             for r, printed, diff in zip(range(2, 10), REF_ONEFIVE_DIFFS, diffs)])


def _beta_rows():
    from ..regularization import theta_value
    return ([_cell(f"Abel value, exponent {k}", "0", theta_value(k))
             for k in BETA_ZERO_KS] +
            [_cell(f"residue relation, s = {s}", "0", theta_value(s - 2))
             for s in BETA_RELATION_SS])


# name -> (title, row generator, notes)
REPRODUCE_TABLES = {
    "lift": ("lift coefficients", _lift_rows, []),
    "pairs": ("pair expansions of the lift truncations", _pair_rows,
              ["FLAGGED rows match the dual-route computation but differ "
               "from a known misprint in the reference"]),
    "zeta2": ("inverse (1,3) entries over the balanced basis", _zeta2_rows, []),
    "onefive": ("inverse (1,5) entries and their first differences",
                _onefive_rows, []),
    "beta": ("vanishing of the regularized sums", _beta_rows, []),
}


def run(args):
    names = args.table or list(REPRODUCE_TABLES)
    for at, name in enumerate(names):
        if name in names[:at]:
            raise ValueError(f"table {name} given twice")
    tables = []
    for name in names:
        title, rows, notes = REPRODUCE_TABLES[name]
        tables.append((title, ["where", "reference", "computed", "verdict"],
                       rows(), notes))
    verdicts = [row[-1] for _, _, rows, _ in tables for row in rows]
    failed = "FAIL" in verdicts
    tables.append(("summary", ["what", "value"],
                   [["tables", str(len(tables))],
                    ["flagged", str(verdicts.count("FLAGGED"))],
                    ["overall", "FAIL" if failed else "PASS"]], []))
    return 2 if failed else 0, tables
