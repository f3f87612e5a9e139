"""Finite-window convergence diagnostics for sequences of braid sums.

Three conditions are inspected: (a) every braid coefficient trace settles,
(b) every graded integral trace settles, (c) later differences sit deep in
the filtration, order(b_i - b_j) >= i for i < j.  All verdicts are evidence
over the inspected window, never limit claims; the report says so itself.

Trace classification compares successive absolute differences as exact
rationals, so no scale underflows or overflows.  Leading zero differences
are trimmed first, because an exponent that has not entered the window yet
carries no information.  Fewer than three nonzero differences is ruled
insufficient rather than guessed at.
"""

from fractions import Fraction

from .braid_ring import (BraidSum, coefficient, combine, filtration_order,
                         pair, tau)
from .kontsevich import Z

CAVEAT = ("finite-window evidence only; no verdict here asserts a limit")


class BraidSumSequence:
    def __init__(self, items: list, label: str = ""):
        self.items = items
        self.label = label

    def __len__(self):
        return len(self.items)

    def item(self, i: int) -> BraidSum:
        """1-based access, matching the index convention of condition (c)."""
        return self.items[i - 1]


def coefficient_trace(seq: BraidSumSequence, n: int) -> list[Fraction]:
    return [coefficient(b, n) for b in seq.items]


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


class ConditionCResult:
    def __init__(self, checked_pairs: int, violations: list):
        self.ok = not violations
        self.checked_pairs = checked_pairs
        self.first_violation = violations[0] if violations else None
        self.violations = violations


def filtration_condition_c(seq: BraidSumSequence,
                           window: int | None = None) -> ConditionCResult:
    """Check order(b_i - b_j) >= i over all pairs i < j within the window."""
    limit = len(seq) if window is None else min(window, len(seq))
    violations = []
    checked = 0
    for i in range(1, limit + 1):
        for j in range(i + 1, limit + 1):
            checked += 1
            diff = combine(seq.item(i), 1, seq.item(j), -1)
            order = filtration_order(diff)
            if order < i:
                violations.append((i, j, order))
    return ConditionCResult(checked, violations)


class BiconvergenceReport:
    def __init__(self, label: str, window: int, jmax: int,
                 exponent_classes: dict, z_classes: dict,
                 condition_c: ConditionCResult):
        self.label = label
        self.window = window
        self.jmax = jmax
        self.exponent_classes = exponent_classes
        self.z_classes = z_classes
        self.condition_c = condition_c
        self.verdict_a = "fail" if "diverging" in exponent_classes.values() \
            else "pass"
        self.verdict_b = "fail" if "diverging" in z_classes.values() else "pass"
        self.verdict_c = "pass" if condition_c.ok else "fail"
        self.caveat = CAVEAT


def biconvergence_report(seq: BraidSumSequence, jmax: int,
                         window: int) -> BiconvergenceReport:
    """Aggregate (a), (b), (c) over the window.

    A condition fails only on positive evidence of divergence; insufficient
    or inconclusive traces are listed but do not fail it.  A window of
    fewer than two items holds no evidence and is rejected.
    """
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    window = min(window, len(seq))
    if window < 2:
        raise ValueError(f"a window needs at least 2 items, got {window}")
    trimmed = BraidSumSequence(seq.items[:window], seq.label)
    # a coefficient present for under half the window has not left its
    # transient regime; demanding window//2 + 2 increments keeps verdicts
    # off such rows at every window size
    maturity = max(3, window // 2 + 2)
    exponents = sorted({n for b in trimmed.items for n in b.nums})
    exponent_classes = {n: classify_trace(coefficient_trace(trimmed, n),
                                          maturity)
                        for n in exponents}
    integrals = [Z(b, jmax) for b in trimmed.items]
    z_classes = {j: classify_trace([s[j] for s in integrals], maturity)
                 for j in range(jmax + 1)}
    return BiconvergenceReport(seq.label, window, jmax, exponent_classes,
                               z_classes, filtration_condition_c(trimmed))


# ---------------------------------------------------------------------------
# stock sequences used by the command line and the diagnostics themselves

def lift_truncation_sequence(count: int) -> BraidSumSequence:
    """b_i = the order (2i-1) lift applied to q - q^-1.

    Differences of consecutive items are spans of high seed powers, so the
    sequence satisfies condition (c) comfortably.
    """
    from .inverse_engine import apply, strengthen_to
    full = strengthen_to(tau(), 2 * count - 1)
    items = [apply(full[:2 * i], tau()) for i in range(1, count + 1)]
    return BraidSumSequence(items, "lift-truncations")


def harmonic_sigma_sequence(count: int) -> BraidSumSequence:
    """b_i = (alternating harmonic partial sum) times the half twist.

    The coefficient converges, every graded trace converges, and condition
    (c) fails immediately: all differences have filtration order 0.
    """
    items = []
    acc = Fraction(0)
    for m in range(1, count + 1):
        acc += Fraction((-1) ** (m + 1), m)
        items.append(BraidSum({1: acc}))
    return BraidSumSequence(items, "harmonic-sigma")


def pair_partial_sequence(count: int) -> BraidSumSequence:
    """Partial sums of 4 sum (-1)^m (q^n - q^-n) / n^2 over odd n = 2m+1.

    Scaled so every coefficient stays rational (the limit object carries a
    1/pi).  Coefficients stabilize, but the raw graded traces of degree
    3 and higher diverge, which is exactly what regularization is for.
    """
    items = []
    acc = BraidSum()
    for m in range(count):
        n = 2 * m + 1
        acc = combine(acc, 1, pair(n), Fraction(4 * (-1) ** m, n * n))
        items.append(acc)
    return BraidSumSequence(items, "pair-partials")


STOCK_SEQUENCES = {"tauhat": lift_truncation_sequence,
                   "pairs": pair_partial_sequence,
                   "harmonic": harmonic_sigma_sequence}
