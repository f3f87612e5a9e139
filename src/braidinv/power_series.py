"""Truncated power series in one variable t over exact rationals.

A series of truncation order N is a tuple of its N + 1 Fraction
coefficients, exact through degree N: the integral's values and the lifts
of the strong inverse.  The package does no arithmetic on series; only
common_denominator, the way into braid_ring's integers, is left here.
"""

import math
from fractions import Fraction


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over one positive denominator: values[i] = ints[i] / den.

    den is the least common denominator, so it is 1 for an empty list.
    """
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den

