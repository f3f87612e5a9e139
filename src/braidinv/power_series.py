"""Dense truncated power series in one variable t over exact rationals.

A Series of truncation order N stores exactly N + 1 coefficients and all
arithmetic is exact through degree N.  Mixed-order arithmetic truncates to
the smaller order rather than pretending to know more digits than were
computed.  No floating point appears anywhere in this module.

Hot kernels here and in the integral and the lift expansion loop over
integer numerators from common_denominator and return exact Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

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


def add(a: Series, b: Series) -> Series:
    order = min(a.truncation_order, b.truncation_order)
    return Series([a.coeffs[i] + b.coeffs[i] for i in range(order + 1)])


def scale(a: Series, c) -> Series:
    c = Fraction(c)
    return Series([c * x for x in a.coeffs])


def exp_scaled(c, order: int) -> Series:
    """exp(c*t) truncated: coefficients c^i / i!."""
    c = Fraction(c)
    coeffs = [Fraction(1)]
    for i in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / i)
    return Series(coeffs)


def revert(s: Series) -> Series:
    """Compositional inverse r with r(s(t)) = t through the truncation order.

    Solved degree by degree: the system is triangular because s^k has
    valuation k.  Requires zero constant term and nonzero linear term.
    The powers s^d are integer vectors over one denominator, reduced by
    their common gcd at each degree.
    """
    order = s.truncation_order
    if order < 1 or s.coeffs[0] != 0:
        raise ValueError("series must have zero constant term")
    if s.coeffs[1] == 0:
        raise ValueError("series must have nonzero linear term")
    ints, den = common_denominator(s.coeffs)
    terms = [(j, c) for j, c in enumerate(ints) if c]
    r = [Fraction(0)] * (order + 1)
    # partial[i] accumulates [t^i] sum_{k<d} r_k s^k while powers of s are built up
    partial = [Fraction(0)] * (order + 1)
    power, power_den = [1] + [0] * order, 1                   # s^0
    for d in range(1, order + 1):
        # s^d = s^(d-1) * s; s^(d-1) has valuation d - 1
        nxt = [0] * (order + 1)
        for i in range(d - 1, order):
            a = power[i]
            if a:
                for j, c in terms:
                    if i + j > order:
                        break
                    nxt[i + j] += a * c
        power_den *= den
        g = math.gcd(power_den, *nxt)
        power, power_den = [x // g for x in nxt], power_den // g
        target = 1 if d == 1 else 0
        r[d] = (target - partial[d]) * power_den / power[d]
        step = r[d] / power_den
        for i in range(d + 1, order + 1):
            if power[i]:
                partial[i] += step * power[i]
    return Series(r)


def two_sinh_half(order: int) -> Series:
    """2 sinh(t/2) = exp(t/2) - exp(-t/2), truncated."""
    return add(exp_scaled(Fraction(1, 2), order),
               scale(exp_scaled(Fraction(-1, 2), order), -1))


def arcsinh2_closed_form(order: int) -> Series:
    """Taylor series of 2 arcsinh(x/2) from the closed-form coefficients.

    The degree 2k+1 coefficient is (-1)^k (2k)! / (16^k (k!)^2 (2k+1)).
    Independent of revert by construction.
    """
    coeffs = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k + 1 <= order:
        num = (-1) ** k * math.factorial(2 * k)
        den = 16 ** k * math.factorial(k) ** 2 * (2 * k + 1)
        coeffs[2 * k + 1] = Fraction(num, den)
        k += 1
    return Series(coeffs)
