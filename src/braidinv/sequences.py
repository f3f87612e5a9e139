"""The stock sequences of braid sums that `trace --sequence` names.

Only a trace of a stock sequence imports this module; the trace command
holds the table of stock names, labels and builders.
"""

import math

from .braid_ring import BraidSum
from .render import _reduced


def lift_truncation_sequence(count: int) -> list:
    """b_i = the order (2i-1) truncation of the lift expanded at q - q^-1,
    all from one tau_expansions, the top certified, as BraidSums.
    Differences of consecutive items are spans of high seed powers, so
    condition (c) holds comfortably.
    """
    from .pair_expansions import tau_expansions
    return [b.braid_sum() for b in tau_expansions(range(1, 2 * count, 2))]


def harmonic_sigma_sequence(count: int) -> list:
    """b_i = (alternating harmonic partial sum) times the half twist.

    The coefficient converges, every graded trace converges, and condition
    (c) fails immediately: all differences have filtration order 0.
    The running sum is one reduced integer pair.
    """
    items, num, den = [], 0, 1
    for m in range(1, count + 1):
        num, den = _reduced(num * m + (-1) ** (m + 1) * den, den * m)
        items.append(BraidSum({1: num}, den))
    return items


def pair_partial_sequence(count: int) -> list:
    """Partial sums of 4 sum (-1)^m (q^n - q^-n) / n^2 over odd n = 2m+1.

    Scaled so every coefficient stays rational (the limit object carries a
    1/pi).  Coefficients stabilize, but the raw graded traces of degree
    3 and higher diverge, which is exactly what regularization is for.
    The running numerators stay over the lcm of the n^2 so far.
    """
    items = []
    nums, den = {}, 1
    for m in range(count):
        n = 2 * m + 1
        scale = math.lcm(den, n * n) // den
        nums = {k: c * scale for k, c in nums.items()}
        den *= scale
        nums[n] = 4 * (-1) ** m * den // (n * n)
        nums[-n] = -nums[n]
        items.append(BraidSum(nums, den))
    return items
