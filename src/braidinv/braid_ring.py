"""Group algebra of the two-strand braid group over exact rationals.

The group is infinite cyclic, generated by the half twist.  Writing q for the
generator and q^-1 for its inverse, the rational group algebra is the ring of
Laurent polynomials in q.  A BraidSum stores an element as a sparse map
from exponent to nonzero integer numerator over one positive denominator,
reduced by their gcd so that equal sums have equal fields.  It is built
from integers only, by its one constructor: inputs.exponent_map puts a
JSON braid's integer pairs over their common denominator.  render prints
each cell from its integer pair, and the traces read the numerators.
The expansions at q - q^-1 and their powers are built as integers in
pair_expansions and become BraidSums only where a general operation
needs one.  No request multiplies two BraidSums; the tests keep that
product as their reference.

derivatives reads an element's derivatives at q = 1, times den, lazily
over its stored terms; its power moments are the integral's coefficients
and live in kontsevich.  Its finite-type filtration order is where
either stream first leaves zero, the same k for both (Stirling numbers
relate them triangularly); condition (c) compares two items' streams to
find the order of their difference.
"""

import math
from itertools import count

from .render import braid_text, rational


class BraidSum:
    """Finite formal sum of braid powers with rational coefficients.

    The coefficient of q^n is nums[n] / den.  Instances are immutable by
    convention; every operation returns a new value.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int = 1):
        """The sum of nums[n] / den q^n, den > 0, zeros dropped and reduced."""
        nums = {n: c for n, c in nums.items() if c}
        g = math.gcd(den, *nums.values())
        self.nums = {n: c // g for n, c in nums.items()} if g > 1 else nums
        self.den = den // g

    def __repr__(self):
        return f"<BraidSum {render(self)}>"


def sigma_power(n: int) -> BraidSum:
    """The braid power q^n: the identity at 0, the half twist at 1."""
    return BraidSum({n: 1})


def tau() -> BraidSum:
    """The difference q - q^-1 of the two half twists."""
    return BraidSum({1: 1, -1: -1})


def pair(n: int) -> BraidSum:
    """The antisymmetric pair q^n - q^-n, n > 0."""
    if n <= 0:
        raise ValueError("pair exponent must be positive")
    return BraidSum({n: 1, -n: -1})


def derivatives(b: BraidSum):
    """Lazily and unbounded, sum_n nums[n] n(n-1)...(n-k+1), k >= 0."""
    exponents = list(b.nums)
    weights = list(b.nums.values())
    for k in count():
        yield sum(weights)
        weights = [w * (n - k) for w, n in zip(weights, exponents)]


def render(b: BraidSum) -> str:
    """Canonical text form, decreasing exponents, e.g. '1*q^1 + -1*q^-1'."""
    return braid_text((n, rational(c, b.den)) for n, c in b.nums.items())
