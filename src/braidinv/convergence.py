"""Finite-window convergence diagnostics for sequences of braid sums.

A sequence is a list of BraidSums, b_1 first.  Three conditions are
inspected: (a) every braid coefficient trace settles, (b) every graded
integral trace settles, (c) later differences sit deep in the filtration,
order(b_i - b_j) >= i for i < j.  All verdicts are evidence over the
inspected window, never limit claims; CAVEAT says so.

Trace classification compares successive absolute differences as exact
rationals, so no scale underflows or overflows.  Leading zero differences
are trimmed first, because an exponent that has not entered the window yet
carries no information.  Fewer than three nonzero differences is ruled
insufficient rather than guessed at.
"""

from .braid_ring import coefficient, combine, filtration_order
from .kontsevich import Z

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


def filtration_condition_c(items: list) -> list:
    """The violations (i, j, order) of order(b_i - b_j) >= i, 1 <= i < j."""
    violations = []
    for i, a in enumerate(items, 1):
        for j, b in enumerate(items[i:], i + 1):
            order = filtration_order(combine(a, 1, b, -1))
            if order < i:
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
    exponent_classes = {
        n: classify_trace([coefficient(b, n) for b in items], maturity)
        for n in exponents}
    integrals = [Z(b, jmax) for b in items]
    z_classes = {j: classify_trace([s[j] for s in integrals], maturity)
                 for j in range(jmax + 1)}
    return exponent_classes, z_classes, filtration_condition_c(items)
