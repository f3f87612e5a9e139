"""The stock sequences of braid sums that `trace --sequence` names.

Only a trace of a stock sequence imports this module; the trace command
holds the table of stock names, labels and builders.
"""

from fractions import Fraction

from .braid_ring import BraidSum, combine, pair


def lift_truncation_sequence(count: int) -> list:
    """b_i = the order (2i-1) truncation of the lift expanded at q - q^-1,
    all from one tau_expansions, the top certified and each checked once.
    Differences of consecutive items are spans of high seed powers, so
    condition (c) holds comfortably.
    """
    from .pair_expansions import tau_expansions
    return tau_expansions(range(1, 2 * count, 2))


def harmonic_sigma_sequence(count: int) -> list:
    """b_i = (alternating harmonic partial sum) times the half twist.

    The coefficient converges, every graded trace converges, and condition
    (c) fails immediately: all differences have filtration order 0.
    """
    items = []
    acc = Fraction(0)
    for m in range(1, count + 1):
        acc += Fraction((-1) ** (m + 1), m)
        items.append(BraidSum({1: acc}))
    return items


def pair_partial_sequence(count: int) -> list:
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
    return items
