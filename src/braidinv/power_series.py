"""Truncated power series in one variable t over exact rationals.

A series of truncation order N is a tuple of its N + 1 coefficients,
exact through degree N, each a reduced (numerator, denominator) integer
pair: the integral's values (kontsevich) and the lifts of the strong
inverse (inverse_engine).  The package does no arithmetic on series; only
common_denominator is left here, which puts such pairs over one
denominator: a JSON braid's coefficients in inputs.exponent_map, and the
values of a trace in convergence.  So this module loads only with those
two, for zmap of a JSON braid and for trace.
"""

import math


def common_denominator(pairs) -> tuple[list[int], int]:
    """Integer numerators over one positive denominator: the i-th pair
    (n, d), d > 0, is n / d = ints[i] / den.

    den is the least common denominator of pairs in lowest terms, so it is
    1 for no pairs.
    """
    pairs = list(pairs)
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den
