"""The Kontsevich integral on the two-strand braid group.

On two strands the integral is determined by its value on the half twist:
Z(q^n) = exp(n t / 2).  Extended linearly to braid sums it becomes a
series-valued map whose degree-i component lands in a one-dimensional
space; we identify that space with the rationals via the basis t^i, so the
degree-i coefficient of Z(b) is sum_n b_n (n/2)^i / i!, exactly: b's i-th
integer power moment sum_n nums[n] n^i over den 2^i i!.  integral yields
those coefficients lazily as reduced (numerator, denominator) integer
pairs, Z is its prefix through an order, and the graded components of b
are its entries, read off by index.  Condition (c) reads the same stream:
an element's filtration order is the degree where its integral starts.
"""

from itertools import count, islice

from .braid_ring import BraidSum
from .render import _reduced


def integral(b: BraidSum):
    """Lazily and unbounded, the coefficients of Z(b) by degree i >= 0:
    sum_n nums[n] n^i over den 2^i i!, each a reduced pair."""
    exponents = list(b.nums)
    weights = list(b.nums.values())
    den = b.den
    for i in count(1):
        yield _reduced(sum(weights), den)
        weights = [w * n for w, n in zip(weights, exponents)]
        den *= 2 * i


def Z(b: BraidSum, order: int) -> tuple:
    """Series value of the integral on b, its coefficients through the order."""
    if order < 0:
        raise ValueError("negative order")
    return tuple(islice(integral(b), order + 1))


def focus_order(components):
    """The unique degree with a nonzero graded component, if there is one.

    components are the coefficients of Z(b) for degrees 0..jmax, as pairs.
    Returns None when they are all zero or two or more are nonzero; a sum
    is focussed only up to the inspected degree.
    """
    nonzero = [j for j, (num, _) in enumerate(components) if num]
    return nonzero[0] if len(nonzero) == 1 else None
