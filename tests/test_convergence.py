import random
from fractions import Fraction

from braidinv.braid_ring import BraidSum, pair, tau
from braidinv.braid_ring import combine
from braidinv.convergence import (BraidSumSequence, biconvergence_report,
                                  classify_trace, coefficient_trace,
                                  filtration_condition_c,
                                  harmonic_sigma_sequence,
                                  lift_truncation_sequence,
                                  pair_partial_sequence)
from braidinv.kontsevich import Z
from braidinv.regularization import leibniz_partial


def frac(n, d=1):
    return Fraction(n, d)


def z_trace(seq, j):
    """The degree-j graded integral over the items of a sequence."""
    return [Z(b, j)[j] for b in seq.items]


def test_coefficient_trace_of_lift_truncations():
    # the reference table skips the order-5 row, the sequence does not
    seq = lift_truncation_sequence(5)
    assert coefficient_trace(seq, 1) == [frac(1), frac(9, 8), frac(75, 64),
                                         frac(1225, 1024),
                                         frac(19845, 16384)]


def test_coefficient_trace_exponent_zero_is_flat():
    seq = pair_partial_sequence(6)
    assert coefficient_trace(seq, 0) == [frac(0)] * 6


def test_trace_over_constant_sequence():
    b = BraidSum({2: frac(1, 3)})
    seq = BraidSumSequence([b, b, b], "const")
    assert coefficient_trace(seq, 2) == [frac(1, 3)] * 3
    assert classify_trace(coefficient_trace(seq, 2)) == "constant"


def test_z_trace_identities():
    diffs = BraidSumSequence([pair(n) for n in (1, 2, 3)], "pairs-raw")
    assert z_trace(diffs, 0) == [frac(0)] * 3

    lifts = lift_truncation_sequence(5)
    assert z_trace(lifts, 2) == [frac(0)] * 5


def test_z_trace_degree_one_of_pair_partials_is_leibniz():
    seq = pair_partial_sequence(6)
    values = z_trace(seq, 1)
    assert values == [4 * leibniz_partial(r) for r in range(1, 7)]


def test_classify_trace_shapes():
    assert classify_trace([frac(1)] * 4) == "constant"
    assert classify_trace([0, 0, frac(1), frac(1)]) == "insufficient"
    conv = [frac(0), frac(8), frac(12), frac(14), frac(15)]
    assert classify_trace(conv) == "converging"
    div = [frac(0), frac(1), frac(3), frac(7), frac(15)]
    assert classify_trace(div) == "diverging"
    wobble = [frac(0), frac(3), frac(4), frac(7), frac(8)]
    assert classify_trace(wobble) == "inconclusive"
    assert classify_trace(div, min_diffs=5) == "insufficient"
    # beyond the float range: differences would underflow to zero or overflow
    scale = frac(10) ** 400
    assert classify_trace([x / scale for x in conv]) == "converging"
    assert classify_trace([x * scale for x in div]) == "diverging"


def test_condition_c_on_stock_sequences():
    assert filtration_condition_c(lift_truncation_sequence(6)).ok

    harmonic = filtration_condition_c(harmonic_sigma_sequence(5))
    assert not harmonic.ok
    assert harmonic.first_violation == (1, 2, 0)

    b = BraidSum({1: 1, -2: frac(1, 2)})
    const = filtration_condition_c(BraidSumSequence([b, b, b, b], "const"))
    assert const.ok
    assert const.checked_pairs == 6


def test_condition_c_window_restriction():
    """Truncating the window only ever removes violations, never adds."""
    seq = pair_partial_sequence(6)
    full = filtration_condition_c(seq)
    short = filtration_condition_c(seq, window=2)
    assert not full.ok
    assert short.checked_pairs == 1
    assert len(short.violations) <= len(full.violations)


def test_biconvergence_verdicts():
    lifts = biconvergence_report(lift_truncation_sequence(8), 5, 8)
    assert (lifts.verdict_a, lifts.verdict_b, lifts.verdict_c) == \
        ("pass", "pass", "pass")

    harmonic = biconvergence_report(harmonic_sigma_sequence(8), 5, 8)
    assert (harmonic.verdict_a, harmonic.verdict_b) == ("pass", "pass")
    assert harmonic.verdict_c == "fail"

    pairs = biconvergence_report(pair_partial_sequence(8), 5, 8)
    assert pairs.verdict_b == "fail"
    assert pairs.verdict_c == "fail"

    b = BraidSum({3: frac(2, 7)})
    const = biconvergence_report(BraidSumSequence([b] * 6, "const"), 4, 6)
    assert (const.verdict_a, const.verdict_b, const.verdict_c) == \
        ("pass", "pass", "pass")


def test_report_carries_caveat():
    report = biconvergence_report(lift_truncation_sequence(4), 2, 4)
    assert "finite-window" in report.caveat


def test_eventual_constancy_under_condition_c():
    # once the filtration condition holds, each graded trace freezes:
    # items past index j + 1 differ by elements of order above j
    seq = lift_truncation_sequence(8)
    for j in range(6):
        values = z_trace(seq, j)
        assert all(v == values[j] for v in values[j:])


def test_additivity_of_traces():
    rng = random.Random(1060)
    items_b = [BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3)
                         for _ in range(2)}) for _ in range(5)]
    items_c = [BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3)
                         for _ in range(2)}) for _ in range(5)]
    b = BraidSumSequence(items_b, "b")
    c = BraidSumSequence(items_c, "c")
    total = BraidSumSequence([combine(x, 1, y, 1)
                              for x, y in zip(items_b, items_c)], "b+c")
    for n in range(-4, 5):
        assert coefficient_trace(total, n) == [
            x + y for x, y in zip(coefficient_trace(b, n),
                                  coefficient_trace(c, n))]
    for j in range(4):
        assert z_trace(total, j) == [
            x + y for x, y in zip(z_trace(b, j), z_trace(c, j))]


def test_lift_truncation_items():
    seq = lift_truncation_sequence(3)
    assert seq.items[0] == tau()
    assert seq.item(1) == tau()
    assert Z(seq.item(3), 5)[5] == 0


def test_harmonic_sequence_values():
    seq = harmonic_sigma_sequence(3)
    partials = [frac(1), frac(1, 2), frac(5, 6)]
    for item, p in zip(seq.items, partials):
        assert item == BraidSum({1: p})


def test_pair_partial_first_item():
    seq = pair_partial_sequence(2)
    assert seq.items[0] == BraidSum({1: 4, -1: -4})
    second = seq.items[1]
    assert second.terms[3] == frac(-4, 9)
