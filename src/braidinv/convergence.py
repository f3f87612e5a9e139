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

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .braid_ring import BraidSum, coefficient, combine, filtration_order, tau
from .inverse_engine import strengthen_to
from .kontsevich import Z_i

CAVEAT = ("finite-window evidence only; no verdict here asserts a limit")


@dataclass
class BraidSumSequence:
    items: list
    label: str = ""

    def __len__(self):
        return len(self.items)

    def item(self, i: int) -> BraidSum:
        """1-based access, matching the index convention of condition (c)."""
        return self.items[i - 1]


def coefficient_trace(seq: BraidSumSequence, n: int) -> list[Fraction]:
    return [coefficient(b, n) for b in seq.items]


def z_trace(seq: BraidSumSequence, j: int) -> list[Fraction]:
    return [Z_i(b, j) for b in seq.items]


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
    if all(d == 0 for d in diffs):
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


@dataclass
class ConditionCResult:
    ok: bool
    checked_pairs: int
    first_violation: tuple | None
    violations: list = field(default_factory=list)


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
    return ConditionCResult(ok=not violations,
                            checked_pairs=checked,
                            first_violation=violations[0] if violations else None,
                            violations=violations)


@dataclass
class BiconvergenceReport:
    label: str
    window: int
    jmax: int
    exponent_classes: dict
    z_classes: dict
    condition_c: ConditionCResult
    verdict_a: str
    verdict_b: str
    verdict_c: str
    caveat: str = CAVEAT

    def all_pass(self) -> bool:
        return (self.verdict_a, self.verdict_b, self.verdict_c) == ("pass",) * 3


def biconvergence_report(seq: BraidSumSequence, jmax: int,
                         window: int) -> BiconvergenceReport:
    """Aggregate (a), (b), (c) over the window.

    A condition fails only on positive evidence of divergence; insufficient
    or inconclusive traces are listed but do not fail it.
    """
    window = min(window, len(seq))
    trimmed = BraidSumSequence(seq.items[:window], seq.label)
    # a coefficient present for under half the window has not left its
    # transient regime; demanding window//2 + 2 increments keeps verdicts
    # off such rows at every window size
    maturity = max(3, window // 2 + 2)
    exponents = sorted({n for b in trimmed.items for n in b.terms})
    exponent_classes = {n: classify_trace(coefficient_trace(trimmed, n),
                                          maturity)
                        for n in exponents}
    z_classes = {j: classify_trace(z_trace(trimmed, j), maturity)
                 for j in range(jmax + 1)}
    cond_c = filtration_condition_c(trimmed)
    verdict_a = "fail" if "diverging" in exponent_classes.values() else "pass"
    verdict_b = "fail" if "diverging" in z_classes.values() else "pass"
    verdict_c = "pass" if cond_c.ok else "fail"
    return BiconvergenceReport(seq.label, window, jmax, exponent_classes,
                               z_classes, cond_c, verdict_a, verdict_b,
                               verdict_c)


def additivity_check(b: BraidSumSequence, c: BraidSumSequence,
                     exponents, j_values) -> bool:
    """Traces of the elementwise sum equal the sums of traces, exactly."""
    if len(b) != len(c):
        raise ValueError("sequences must have equal length")
    total = BraidSumSequence(
        [combine(x, 1, y, 1) for x, y in zip(b.items, c.items)],
        label=f"{b.label}+{c.label}")
    for n in exponents:
        lhs = coefficient_trace(total, n)
        rhs = [x + y for x, y in zip(coefficient_trace(b, n),
                                     coefficient_trace(c, n))]
        if lhs != rhs:
            return False
    for j in j_values:
        lhs = z_trace(total, j)
        rhs = [x + y for x, y in zip(z_trace(b, j), z_trace(c, j))]
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# stock sequences used by the command line and the diagnostics themselves

def lift_truncation_sequence(count: int) -> BraidSumSequence:
    """b_i = the order (2i-1) lift applied to q - q^-1.

    Differences of consecutive items are spans of high seed powers, so the
    sequence satisfies condition (c) comfortably.
    """
    full = strengthen_to(tau(), 2 * count - 1)
    items = [full.truncate(2 * i - 1).apply() for i in range(1, count + 1)]
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
        step = Fraction(4 * (-1) ** m, n * n)
        piece = BraidSum({n: step, -n: -step})
        acc = combine(acc, 1, piece, 1)
        items.append(acc)
    return BraidSumSequence(items, "pair-partials")
