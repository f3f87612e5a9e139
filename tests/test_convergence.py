import random
from fractions import Fraction

import pytest

from braidinv import braid_ring, cli, convergence, kontsevich, sequences
from braidinv.braid_ring import BraidSum, pair, tau
from braidinv.commands.trace import STOCK_SEQUENCES
from braidinv.convergence import (CAVEAT, biconvergence_report,
                                  classify_trace, filtration_condition_c,
                                  verdict)
from braidinv.sequences import (harmonic_sigma_sequence,
                                lift_truncation_sequence,
                                pair_partial_sequence)
from braidinv.regularization import leibniz_partial

import oracles
from oracles import combine, read_pairs, read_z


def z_trace(items, j):
    """The degree-j graded integral over the items of a sequence."""
    return [read_z(b, j)[j] for b in items]


def coefficient_trace(items, n):
    """The coefficient of q^n over the items of a sequence."""
    return [oracles.terms(b).get(n, 0) for b in items]


def verdicts(items, jmax):
    """The (a), (b), (c) verdicts as the trace command prints them."""
    n_classes, z_classes, violations = biconvergence_report(items, jmax)
    return (verdict(n_classes), verdict(z_classes),
            "fail" if violations else "pass")


def test_coefficient_trace_of_lift_truncations():
    # the reference table skips the order-5 row, the sequence does not
    seq = lift_truncation_sequence(5)
    assert coefficient_trace(seq, 1) == [Fraction(1), Fraction(9, 8),
                                         Fraction(75, 64),
                                         Fraction(1225, 1024),
                                         Fraction(19845, 16384)]


def test_coefficient_trace_exponent_zero_is_flat():
    seq = pair_partial_sequence(6)
    assert coefficient_trace(seq, 0) == [Fraction(0)] * 6


def test_trace_over_constant_sequence():
    b = BraidSum({2: 1}, 3)
    seq = [b, b, b]
    assert coefficient_trace(seq, 2) == [Fraction(1, 3)] * 3
    assert classify_trace(coefficient_trace(seq, 2)) == "constant"


def test_z_trace_identities():
    diffs = [pair(n) for n in (1, 2, 3)]
    assert z_trace(diffs, 0) == [Fraction(0)] * 3

    lifts = lift_truncation_sequence(5)
    assert z_trace(lifts, 2) == [Fraction(0)] * 5


def test_z_trace_degree_one_of_pair_partials_is_leibniz():
    seq = pair_partial_sequence(6)
    values = z_trace(seq, 1)
    assert values == [4 * read_pairs(leibniz_partial(r)) for r in range(1, 7)]


def test_classify_trace_shapes():
    assert classify_trace([Fraction(1)] * 4) == "constant"
    assert classify_trace([0, 0, Fraction(1), Fraction(1)]) == "insufficient"
    conv = [Fraction(0), Fraction(8), Fraction(12), Fraction(14), Fraction(15)]
    assert classify_trace(conv) == "converging"
    div = [Fraction(0), Fraction(1), Fraction(3), Fraction(7), Fraction(15)]
    assert classify_trace(div) == "diverging"
    wobble = [Fraction(0), Fraction(3), Fraction(4), Fraction(7), Fraction(8)]
    assert classify_trace(wobble) == "inconclusive"
    assert classify_trace(div, min_diffs=5) == "insufficient"
    # beyond the float range: differences would underflow to zero or overflow
    scale = Fraction(10) ** 400
    assert classify_trace([x / scale for x in conv]) == "converging"
    assert classify_trace([x * scale for x in div]) == "diverging"


def test_constant_nonzero_increments_are_inconclusive():
    # increments that neither shrink nor grow: converging needs the last
    # below the first and diverging the last above it, strictly
    for trace in ([0, 1, 2, 3, 4], [7, 5, 7, 5, 7],
                  [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4),
                   Fraction(0)]):
        assert classify_trace(trace) == "inconclusive", trace


def test_condition_c_on_stock_sequences():
    assert filtration_condition_c(lift_truncation_sequence(6)) == []

    harmonic = filtration_condition_c(harmonic_sigma_sequence(5))
    assert harmonic[0] == (1, 2, 0)
    # every difference of the harmonic items has order 0 < i
    assert len(harmonic) == 10

    b = BraidSum({1: 2, -2: 1}, 2)
    assert filtration_condition_c([b, b, b, b]) == []


def counting(route, reads):
    """route's stream, each call appending a slot to reads that counts
    the values the stream has yielded."""
    def stream(b):
        reads.append(0)
        slot = len(reads) - 1
        for value in route(b):
            reads[slot] += 1
            yield value
    return stream


def test_condition_c_reads_each_stream_only_as_deep_as_a_pair_needs(
        monkeypatch):
    # item i is compared to depth i at most, and a pair stops at its first
    # difference: harmonic items differ at degree 0, pair partials (all
    # antisymmetric) at degree 1, and tauhat items i < j agree through
    # degree 2i, beyond the depth i that condition (c) asks about
    def reads_of(items):
        integral_reads, derivative_reads = [], []
        monkeypatch.setattr(convergence, "integral",
                            counting(kontsevich.integral, integral_reads))
        monkeypatch.setattr(convergence, "derivatives",
                            counting(braid_ring.derivatives, derivative_reads))
        filtration_condition_c(items)
        assert len(integral_reads) == len(derivative_reads) == len(items)
        return list(zip(integral_reads, derivative_reads))

    assert max(map(max, reads_of(harmonic_sigma_sequence(60)))) == 1
    assert max(map(max, reads_of(pair_partial_sequence(60)))) == 2
    tauhat = reads_of(lift_truncation_sequence(30))
    assert all(max(r) <= i for i, r in enumerate(tauhat, 1))


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

    b = BraidSum({3: 2}, 7)
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
    assert oracles.same(seq[0], tau())
    assert read_z(seq[2], 5)[5] == 0


def test_harmonic_sequence_values():
    seq = harmonic_sigma_sequence(3)
    partials = [Fraction(1), Fraction(1, 2), Fraction(5, 6)]
    for item, p in zip(seq, partials):
        assert oracles.same(item, BraidSum({1: p.numerator}, p.denominator))


def test_pair_partial_first_item():
    seq = pair_partial_sequence(2)
    assert oracles.same(seq[0], BraidSum({1: 4, -1: -4}))
    second = seq[1]
    assert oracles.terms(second)[3] == Fraction(-4, 9)


def test_stock_sequences_are_their_fraction_definitions():
    # every window 1-60 of each stock sequence, field by field, against
    # items summed as Fractions: the lift truncations from the binomial
    # series of 2 arcsinh(t/2) at q - q^-1, the pair partials and the
    # harmonic partials from their definitions
    lift = oracles.arcsinh2_binomial(119)
    tauhat, pairs, harmonic = [], [], []
    running, power, partials, acc = {}, {0: Fraction(1)}, {}, Fraction(0)
    for m in range(60):
        for _ in range(min(2 * m + 1, 2)):
            power = oracles.braid_mul(power, oracles.TAU)
        running = oracles.braid_lincomb(running, 1, power, lift[2 * m + 1])
        tauhat.append(oracles.fields(running))
        n = 2 * m + 1
        partials = oracles.braid_lincomb(partials, 1, {n: 1, -n: -1},
                                         Fraction(4 * (-1) ** m, n * n))
        pairs.append(oracles.fields(partials))
        acc += Fraction((-1) ** m, m + 1)
        harmonic.append(oracles.fields({1: acc}))
    for builder, want in ((lift_truncation_sequence, tauhat),
                          (pair_partial_sequence, pairs),
                          (harmonic_sigma_sequence, harmonic)):
        for window in range(1, 61):
            assert [(b.nums, b.den) for b in builder(window)] == \
                want[:window], (builder.__name__, window)
