"""Dense truncated power series in one variable t over exact rationals.

A Series of truncation order N stores exactly N + 1 coefficients, exact
through degree N: the integral's values, the target t, and the arcsinh
closed form of the strong inverse.  The package does no arithmetic on
series; its hot kernels (the integral, the lift solve and the expansion of
a lift at its seed) loop over integer numerators from common_denominator
and return exact Fractions.  No floating point appears anywhere in this
module.
"""

import math
from fractions import Fraction


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over one positive denominator: values[i] = ints[i] / den.

    den is the least common denominator, so it is 1 for an empty list.
    """
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def t_series(order: int) -> Series:
    """The identity series t, truncated at the given order."""
    if order < 1:
        raise ValueError("t does not fit in order 0")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1] = Fraction(1)
    return Series(coeffs)


def arcsinh2_closed_form(order: int) -> Series:
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
    return Series(coeffs)
