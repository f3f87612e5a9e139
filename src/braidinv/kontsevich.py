"""The Kontsevich integral on the two-strand braid group.

On two strands the integral is determined by its value on the half twist:
Z(q^n) = exp(n t / 2).  Extended linearly to braid sums it becomes a
series-valued map whose degree-i component Z_i lands in a one-dimensional
space; we identify that space with the rationals via the basis t^i, so
Z_i(b) = sum_n b_n (n/2)^i / i!, exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .braid_ring import BraidSum, filtration_order
from .power_series import Series, common_denominator


class GradedValue(NamedTuple):
    order: int
    value: Fraction


def Z(b: BraidSum, order: int) -> Series:
    """Series value of the integral on b, truncated at the given order.

    With b_n = B_n / den over integers, the degree-i coefficient is the
    integer moment sum_n B_n n^i divided by den 2^i i!.
    """
    if order < 0:
        raise ValueError("negative order")
    exponents = list(b.terms)
    moments, den = common_denominator(b.terms.values())
    coeffs = []
    for i in range(order + 1):
        coeffs.append(Fraction(sum(moments), den))
        moments = [m * n for m, n in zip(moments, exponents)]
        den *= 2 * (i + 1)
    return Series(coeffs)


def Z_i(b: BraidSum, i: int) -> Fraction:
    """Degree-i component: sum_n b_n (n/2)^i / i!."""
    if i < 0:
        raise ValueError("negative degree")
    total = sum((c * Fraction(n, 2) ** i for n, c in b.terms.items()),
                Fraction(0))
    return total / math.factorial(i)


def residue(b: BraidSum) -> GradedValue:
    """The first nonvanishing graded component, at the filtration order.

    Rejects the zero sum, whose order is infinite.
    """
    if not b:
        raise ValueError("the zero sum has no residue")
    j = filtration_order(b)
    return GradedValue(j, Z_i(b, j))


def focus_profile(b: BraidSum, jmax: int) -> list[GradedValue]:
    """Graded components for degrees 0..jmax."""
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    return [GradedValue(j, Z_i(b, j)) for j in range(jmax + 1)]


def focus_order(profile: list[GradedValue]):
    """The unique degree with a nonzero entry, if there is exactly one.

    Returns None when the profile is identically zero or has two or more
    nonzero entries; a sum is focussed only up to the inspected degree.
    """
    nonzero = [g.order for g in profile if g.value != 0]
    if len(nonzero) == 1:
        return nonzero[0]
    return None
