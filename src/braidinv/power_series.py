"""Truncated power series in one variable t over exact rationals.

A series of truncation order N is a tuple of its N + 1 Fraction
coefficients, exact through degree N: the integral's values, the target t
and the arcsinh closed form of the strong inverse.  The package does no
arithmetic on series, and no floating point appears in this module.
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


def t_series(order: int) -> tuple:
    """The identity series t, truncated at the given order."""
    if order < 1:
        raise ValueError("t does not fit in order 0")
    return (Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1)


def arcsinh2_closed_form(order: int) -> tuple:
    """Taylor series of 2 arcsinh(x/2) from the closed-form coefficients.

    The degree 2k+1 coefficient is (-1)^k (2k)! / (16^k (k!)^2 (2k+1)).
    Independent of the lift solve by construction.
    """
    coeffs = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k + 1 <= order:
        num = (-1) ** k * math.factorial(2 * k)
        den = 16 ** k * math.factorial(k) ** 2 * (2 * k + 1)
        coeffs[2 * k + 1] = Fraction(num, den)
        k += 1
    return tuple(coeffs)
