import random
from fractions import Fraction

import pytest

from braidinv import cli, sequences
from braidinv.braid_ring import BraidSum, pair, tau
from braidinv.braid_ring import combine
from braidinv.commands.trace import STOCK_SEQUENCES
from braidinv.convergence import (CAVEAT, biconvergence_report,
                                  classify_trace, filtration_condition_c,
                                  verdict)
from braidinv.kontsevich import Z
from braidinv.sequences import (harmonic_sigma_sequence,
                                lift_truncation_sequence,
                                pair_partial_sequence)
from braidinv.regularization import leibniz_partial


def frac(n, d=1):
    return Fraction(n, d)


def z_trace(items, j):
    """The degree-j graded integral over the items of a sequence."""
    return [Z(b, j)[j] for b in items]


def coefficient_trace(items, n):
    """The coefficient of q^n over the items of a sequence."""
    return [b.terms.get(n, 0) for b in items]


def verdicts(items, jmax):
    """The (a), (b), (c) verdicts as the trace command prints them."""
    n_classes, z_classes, violations = biconvergence_report(items, jmax)
    return (verdict(n_classes), verdict(z_classes),
            "fail" if violations else "pass")


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
    seq = [b, b, b]
    assert coefficient_trace(seq, 2) == [frac(1, 3)] * 3
    assert classify_trace(coefficient_trace(seq, 2)) == "constant"


def test_z_trace_identities():
    diffs = [pair(n) for n in (1, 2, 3)]
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


def test_constant_nonzero_increments_are_inconclusive():
    # increments that neither shrink nor grow: converging needs the last
    # below the first and diverging the last above it, strictly
    for trace in ([0, 1, 2, 3, 4], [7, 5, 7, 5, 7],
                  [frac(1), frac(3, 4), frac(1, 2), frac(1, 4), frac(0)]):
        assert classify_trace(trace) == "inconclusive", trace


def test_condition_c_on_stock_sequences():
    assert filtration_condition_c(lift_truncation_sequence(6)) == []

    harmonic = filtration_condition_c(harmonic_sigma_sequence(5))
    assert harmonic[0] == (1, 2, 0)
    # every difference of the harmonic items has order 0 < i
    assert len(harmonic) == 10

    b = BraidSum({1: 1, -2: frac(1, 2)})
    assert filtration_condition_c([b, b, b, b]) == []


def test_condition_c_window_restriction():
    """Truncating the window only ever removes violations, never adds."""
    seq = pair_partial_sequence(6)
    full = filtration_condition_c(seq)
    short = filtration_condition_c(seq[:2])
    assert full
    assert set(short) <= set(full)


def test_biconvergence_verdicts():
    assert verdicts(lift_truncation_sequence(8), 5) == ("pass",) * 3
    assert verdicts(harmonic_sigma_sequence(8), 5) == ("pass", "pass", "fail")
    assert verdicts(pair_partial_sequence(8), 5)[1:] == ("fail", "fail")

    b = BraidSum({3: frac(2, 7)})
    assert verdicts([b] * 6, 4) == ("pass",) * 3


def test_verdict_fails_only_on_divergence():
    assert verdict({}) == "pass"
    assert verdict({0: "insufficient", 1: "inconclusive",
                    2: "converging", 3: "constant"}) == "pass"
    assert verdict({0: "converging", 5: "diverging"}) == "fail"


def test_report_rejects_short_windows_and_negative_degrees():
    items = lift_truncation_sequence(2)
    with pytest.raises(ValueError, match="at least 2 items, got 1"):
        biconvergence_report(items[:1], 2)
    with pytest.raises(ValueError, match="jmax must be nonnegative"):
        biconvergence_report(items, -1)


def test_report_carries_caveat(capsys):
    assert "finite-window" in CAVEAT
    assert cli.main(["trace", "--sequence", "harmonic", "--window", "4"]) == 0
    assert capsys.readouterr().out.endswith(f"note: {CAVEAT}\n")


def test_stock_sequence_labels():
    assert {name: label for name, (label, _) in STOCK_SEQUENCES.items()} == \
        {"tauhat": "lift-truncations", "pairs": "pair-partials",
         "harmonic": "harmonic-sigma"}
    for _, builder in STOCK_SEQUENCES.values():
        assert callable(getattr(sequences, builder))


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
    b, c = items_b, items_c
    total = [combine(x, 1, y, 1) for x, y in zip(items_b, items_c)]
    for n in range(-4, 5):
        assert coefficient_trace(total, n) == [
            x + y for x, y in zip(coefficient_trace(b, n),
                                  coefficient_trace(c, n))]
    for j in range(4):
        assert z_trace(total, j) == [
            x + y for x, y in zip(z_trace(b, j), z_trace(c, j))]


def test_lift_truncation_items():
    seq = lift_truncation_sequence(3)
    assert seq[0] == tau()
    assert Z(seq[2], 5)[5] == 0


def test_harmonic_sequence_values():
    seq = harmonic_sigma_sequence(3)
    partials = [frac(1), frac(1, 2), frac(5, 6)]
    for item, p in zip(seq, partials):
        assert item == BraidSum({1: p})


def test_pair_partial_first_item():
    seq = pair_partial_sequence(2)
    assert seq[0] == BraidSum({1: 4, -1: -4})
    second = seq[1]
    assert second.terms[3] == frac(-4, 9)
