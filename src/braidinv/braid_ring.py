"""Group algebra of the two-strand braid group over exact rationals.

The group is infinite cyclic, generated by the half twist.  Writing q for the
generator and q^-1 for its inverse, the rational group algebra is the ring of
Laurent polynomials in q.  A BraidSum stores an element as a sparse map
from exponent to nonzero integer numerator over one positive denominator,
reduced by their gcd so that equal sums have equal fields.  Its kernels,
moments and stock braids work on those integers, and BraidSum.over takes
them as they are; Fractions come in through the constructor and go out
through terms, coefficient and render; every request that loads the ring
builds or prints one.  The expansions at q - q^-1 and their powers are built as
integers in pair_expansions and become BraidSums only where a general
operation needs one.  No request multiplies two BraidSums; the tests
keep that product as their reference.

Two lazy integer streams read an element over its stored terms only:
den times its power moments sum_n c_n n^i and its derivatives at q = 1.
Its finite-type filtration order is where either first leaves zero, the
same k for both (Stirling numbers relate them triangularly); condition
(c) compares two items' streams to find the order of their difference.
"""

import math
from fractions import Fraction
from itertools import count

from .power_series import common_denominator
from .render import braid_text


class BraidSum:
    """Finite formal sum of braid powers with rational coefficients.

    The coefficient of q^n is nums[n] / den.  Instances are immutable by
    convention; every operation returns a new value.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        terms = terms or {}
        nums, den = common_denominator(terms.values())
        self._reduce(zip(map(int, terms), nums), den)

    @classmethod
    def over(cls, nums: dict, den: int) -> "BraidSum":
        """The sum of nums[n] / den q^n, den > 0, zeros dropped and reduced."""
        b = cls.__new__(cls)
        b._reduce(nums.items(), den)
        return b

    def _reduce(self, items, den):
        nums = {n: c for n, c in items if c}
        g = math.gcd(den, *nums.values())
        self.nums = {n: c // g for n, c in nums.items()} if g > 1 else nums
        self.den = den // g

    @property
    def terms(self):
        """Exponent-to-Fraction view, built on each access."""
        return {n: Fraction(c, self.den) for n, c in self.nums.items()}

    def __repr__(self):
        return f"<BraidSum {render(self)}>"


def sigma_power(n: int) -> BraidSum:
    """The braid power q^n: the identity at 0, the half twist at 1."""
    return BraidSum.over({n: 1}, 1)


def tau() -> BraidSum:
    """The difference q - q^-1 of the two half twists."""
    return BraidSum.over({1: 1, -1: -1}, 1)


def pair(n: int) -> BraidSum:
    """The antisymmetric pair q^n - q^-n, n > 0."""
    if n <= 0:
        raise ValueError("pair exponent must be positive")
    return BraidSum.over({n: 1, -n: -1}, 1)


def combine(a: BraidSum, ca, b: BraidSum, cb) -> BraidSum:
    """Linear combination ca*a + cb*b of integer or Fraction multiples."""
    da, db = ca.denominator * a.den, cb.denominator * b.den
    den = math.lcm(da, db)
    x, y = ca.numerator * (den // da), cb.numerator * (den // db)
    nums = {n: x * c for n, c in a.nums.items()}
    for n, c in b.nums.items():
        nums[n] = nums.get(n, 0) + y * c
    return BraidSum.over(nums, den)


def coefficient(b: BraidSum, n: int) -> Fraction:
    """Stored coefficient of exponent n, zero if absent."""
    return Fraction(b.nums.get(n, 0), b.den)


def moments(b: BraidSum):
    """Lazily and unbounded, b's integer moments sum_n nums[n] n^i, i >= 0."""
    exponents = list(b.nums)
    weights = list(b.nums.values())
    while True:
        yield sum(weights)
        weights = [w * n for w, n in zip(weights, exponents)]


def derivatives(b: BraidSum):
    """Lazily and unbounded, sum_n nums[n] n(n-1)...(n-k+1), k >= 0."""
    exponents = list(b.nums)
    weights = list(b.nums.values())
    for k in count():
        yield sum(weights)
        weights = [w * (n - k) for w, n in zip(weights, exponents)]


def render(b: BraidSum) -> str:
    """Canonical text form, decreasing exponents, e.g. '1*q^1 + -1*q^-1'."""
    return braid_text((n, str(c)) for n, c in b.terms.items())
