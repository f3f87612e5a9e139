"""The Kontsevich integral on the two-strand braid group.

On two strands the integral is determined by its value on the half twist:
Z(q^n) = exp(n t / 2).  Extended linearly to braid sums it becomes a
series-valued map whose degree-i component lands in a one-dimensional
space; we identify that space with the rationals via the basis t^i, so the
degree-i coefficient of Z(b) is sum_n b_n (n/2)^i / i!, exactly.  Residues
and focus profiles read their graded values off Z.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .braid_ring import BraidSum, filtration_order, moments
from .power_series import Series


class GradedValue(NamedTuple):
    order: int
    value: Fraction


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


def residue(b: BraidSum) -> GradedValue:
    """The first nonvanishing graded component, at the filtration order.

    Rejects the zero sum, whose order is infinite.
    """
    if not b:
        raise ValueError("the zero sum has no residue")
    j = filtration_order(b)
    return GradedValue(j, Z(b, j).coeffs[j])


def focus_profile(b: BraidSum, jmax: int) -> list[GradedValue]:
    """Graded components for degrees 0..jmax."""
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    return [GradedValue(j, c) for j, c in enumerate(Z(b, jmax).coeffs)]


def focus_order(profile: list[GradedValue]):
    """The unique degree with a nonzero entry, if there is exactly one.

    Returns None when the profile is identically zero or has two or more
    nonzero entries; a sum is focussed only up to the inspected degree.
    """
    nonzero = [g.order for g in profile if g.value != 0]
    if len(nonzero) == 1:
        return nonzero[0]
    return None
