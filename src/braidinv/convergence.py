"""Finite-window convergence diagnostics for sequences of braid sums.

A sequence is a list of BraidSums, b_1 first.  Three conditions are
inspected: (a) every braid coefficient trace settles, (b) every graded
integral trace settles, (c) later differences sit deep in the filtration,
order(b_i - b_j) >= i for i < j, which each item's integral and derivative
prefixes decide with no difference sum built: an element's order is the
degree where its integral starts, and the derivatives at q = 1 are the
check.  All verdicts are evidence over the inspected window, never limit
claims; CAVEAT says so.

Trace classification compares successive absolute differences of the
values' numerators over their least common denominator (put there by
render.common_denominator, which every command loads), exact integers
whose class no positive common scale changes, so no scale underflows or
overflows.  Leading zero differences are trimmed first, because an
exponent that has not entered the window yet carries no information.
Fewer than three nonzero differences is ruled insufficient rather than
guessed at.  Each item's integral, a lazy stream of reduced pairs, is read
once for (b) and (c); its derivatives are put over the window's common
denominator, so (c) too compares integers.
"""

from .braid_ring import derivatives
from .kontsevich import integral
from .render import common_denominator

CAVEAT = ("finite-window evidence only; no verdict here asserts a limit")


def classify_trace(values, min_diffs: int = 3) -> str:
    """One of constant, converging, diverging, insufficient, inconclusive.

    min_diffs sets how many increments must remain after dropping the
    leading zeros before the shape is judged at all; a trace whose entry
    appeared too late in the window is reported as insufficient evidence
    rather than classified from its first few increments.
    """
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    while diffs and diffs[0] == 0:
        diffs.pop(0)
    if not diffs:
        return "constant"
    if len(diffs) < min_diffs:
        return "insufficient"
    nonincreasing = all(y <= x for x, y in zip(diffs, diffs[1:]))
    if nonincreasing and diffs[-1] < diffs[0]:
        return "converging"
    nondecreasing = all(y >= x for x, y in zip(diffs, diffs[1:]))
    if nondecreasing and diffs[-1] > diffs[0]:
        return "diverging"
    return "inconclusive"


def verdict(classes: dict) -> str:
    """A condition fails only on positive evidence of divergence."""
    return "fail" if "diverging" in classes.values() else "pass"


def _scales(items) -> list:
    """The factor that puts each item's den onto the items' least common
    denominator: the numerator of 1 / den over it."""
    return common_denominator([(1, b.den) for b in items])[0]


def _prefix(stream):
    """An item's stream by index, each value read once on demand however
    many pairs and traces read it."""
    values = []

    def at(k: int):
        while len(values) <= k:
            values.append(next(stream))
        return values[k]
    return at


def _first_difference(a, b, depth: int):
    """The first k < depth where two prefixes differ, else None."""
    return next((k for k in range(depth) if a(k) != b(k)), None)


def filtration_condition_c(items: list, integrals=None) -> list:
    """The violations (i, j, order) of order(b_i - b_j) >= i, 1 <= i < j;
    the order is where the items' integrals first differ, and where their
    derivatives at q = 1 do, and the two routes must agree on each pair.
    integrals are the items' integral prefixes, if already read."""
    if integrals is None:
        integrals = [_prefix(integral(b)) for b in items]
    streams = [(at, _prefix(map(scale.__mul__, derivatives(b))))
               for at, b, scale in zip(integrals, items, _scales(items))]
    violations = []
    for i, (integral_a, derivatives_a) in enumerate(streams, 1):
        for j, (integral_b, derivatives_b) in enumerate(streams[i:], i + 1):
            order = _first_difference(integral_a, integral_b, i)
            check = _first_difference(derivatives_a, derivatives_b, i)
            if order != check:
                raise ArithmeticError(f"order routes disagree: integral "
                                      f"{order}, derivatives {check}")
            if order is not None:
                violations.append((i, j, order))
    return violations


def biconvergence_report(items: list, jmax: int):
    """(a), (b), (c) over the window items: the trace class per exponent,
    the trace class per degree 0..jmax, and the violations of (c).

    A window of fewer than two items holds no evidence and is rejected.
    """
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    window = len(items)
    if window < 2:
        raise ValueError(f"a window needs at least 2 items, got {window}")
    # a coefficient present for under half the window has not left its
    # transient regime; demanding window//2 + 2 increments keeps verdicts
    # off such rows at every window size
    maturity = max(3, window // 2 + 2)
    exponents = sorted({n for b in items for n in b.nums})
    scales = _scales(items)
    exponent_classes = {
        n: classify_trace([b.nums.get(n, 0) * s
                           for b, s in zip(items, scales)], maturity)
        for n in exponents}
    integrals = [_prefix(integral(b)) for b in items]
    z_classes = {j: classify_trace(common_denominator(
        at(j) for at in integrals)[0], maturity) for j in range(jmax + 1)}
    return (exponent_classes, z_classes,
            filtration_condition_c(items, integrals))
