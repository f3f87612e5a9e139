"""Truncated power series in one variable t over exact rationals.

A series of truncation order N is a tuple of its N + 1 coefficients,
exact through degree N: the integral's values as Fractions, and the lifts
of the strong inverse as reduced (numerator, denominator) integer pairs
(inverse_engine).  The package does no arithmetic on series; only
common_denominator is left here, which inputs.exponent_map calls to put a
JSON braid's Fractions over one denominator.  So this module loads only
with inputs, for a JSON braid or a sequence file.
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

