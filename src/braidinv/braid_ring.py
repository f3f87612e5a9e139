"""Group algebra of the two-strand braid group over exact rationals.

The group is infinite cyclic, generated by the half twist.  Writing q for the
generator and q^-1 for its inverse, the rational group algebra is the ring of
Laurent polynomials in q.  A BraidSum stores an element as a sparse map
from exponent to nonzero integer numerator over one positive denominator,
reduced by their gcd so that equal sums have equal fields.  Only this
module builds those integers: its kernels and moments work on them;
Fractions come in through the constructor and go out through terms,
coefficient and render.

The finite-type filtration order of an element is computed along two
independent routes that must agree, both over the stored terms only: the
number of leading vanishing power moments sum_n c_n n^i, and the number of
leading vanishing derivatives at q = 1 (the root multiplicity there).  The
zero element has order INFINITE.
"""

import math
from fractions import Fraction

from .power_series import common_denominator

INFINITE = math.inf


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

    def __eq__(self, other):
        if not isinstance(other, BraidSum):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __bool__(self):
        return bool(self.nums)

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


def combine(a: BraidSum, ca, b: BraidSum, cb) -> BraidSum:
    """Linear combination ca*a + cb*b of integer or Fraction multiples."""
    da, db = ca.denominator * a.den, cb.denominator * b.den
    den = math.lcm(da, db)
    x, y = ca.numerator * (den // da), cb.numerator * (den // db)
    nums = {n: x * c for n, c in a.nums.items()}
    for n, c in b.nums.items():
        nums[n] = nums.get(n, 0) + y * c
    return BraidSum.over(nums, den)


def multiply(a: BraidSum, b: BraidSum) -> BraidSum:
    """Convolution product induced by the group law q^i q^j = q^(i+j)."""
    nums = {}
    for i, x in a.nums.items():
        for j, y in b.nums.items():
            nums[i + j] = nums.get(i + j, 0) + x * y
    return BraidSum.over(nums, a.den * b.den)


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


def _moment_order(b: BraidSum) -> int:
    # first j with sum_n c_n n^j nonzero; bounded by the term count because
    # the root multiplicity of a Laurent polynomial at q = 1 is below it
    for j, total in zip(range(len(b.nums) + 1), moments(b)):
        if total:
            return j
    raise ArithmeticError("moment order exceeded its theoretical bound")


def _derivative_order(b: BraidSum) -> int:
    # first k with the k-th derivative at q = 1, sum_n c_n n(n-1)...(n-k+1),
    # nonzero; Stirling numbers relate these falling-factorial moments to
    # the power moments triangularly, so both routes stop at the same k;
    # scaling by den leaves every vanishing sum at zero
    exponents = list(b.nums)
    weights = list(b.nums.values())
    for k in range(len(exponents) + 1):
        if sum(weights):
            return k
        weights = [w * (n - k) for w, n in zip(weights, exponents)]
    raise ArithmeticError("derivative order exceeded its theoretical bound")


def filtration_order(b: BraidSum):
    """Filtration order of b: an integer, or INFINITE for the zero sum.

    Both the moment route and the derivative route are evaluated and
    compared on every call; a disagreement would mean a bug in one of them.
    """
    if not b:
        return INFINITE
    order = _moment_order(b)
    check = _derivative_order(b)
    if order != check:
        raise ArithmeticError(
            f"order routes disagree: moments {order}, derivatives {check}")
    return order


def render(b: BraidSum) -> str:
    """Canonical text form, decreasing exponents, e.g. '1*q^1 + -1*q^-1'."""
    if not b:
        return "0"
    parts = [f"{c}*q^{n}" for n, c in sorted(b.terms.items(), reverse=True)]
    return " + ".join(parts)
