"""The Kontsevich integral on the two-strand braid group.

On two strands the integral is determined by its value on the half twist:
Z(q^n) = exp(n t / 2).  Extended linearly to braid sums it becomes a
series-valued map whose degree-i component lands in a one-dimensional
space; we identify that space with the rationals via the basis t^i, so the
degree-i coefficient of Z(b) is sum_n b_n (n/2)^i / i!, exactly.  The
graded components of b are the coefficients of Z(b), read off by index.
"""

from fractions import Fraction

from .braid_ring import BraidSum, moments
from .power_series import Series


def Z(b: BraidSum, order: int) -> Series:
    """Series value of the integral on b, truncated at the given order.

    The degree-i coefficient is the i-th integer moment of b divided by
    den 2^i i!, with den b's common denominator.
    """
    if order < 0:
        raise ValueError("negative order")
    den, sums = moments(b)
    coeffs = []
    for i, total in zip(range(order + 1), sums):
        coeffs.append(Fraction(total, den))
        den *= 2 * (i + 1)
    return Series(coeffs)


def focus_order(components):
    """The unique degree with a nonzero graded component, if there is one.

    components are the coefficients of Z(b) for degrees 0..jmax.  Returns
    None when they are all zero or two or more are nonzero; a sum is
    focussed only up to the inspected degree.
    """
    nonzero = [j for j, c in enumerate(components) if c]
    return nonzero[0] if len(nonzero) == 1 else None
