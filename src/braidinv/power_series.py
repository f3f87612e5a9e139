"""Dense truncated power series in one variable t over exact rationals.

A Series of truncation order N stores exactly N + 1 coefficients and all
arithmetic is exact through degree N.  Mixed-order arithmetic truncates to
the smaller order rather than pretending to know more digits than were
computed.  No floating point appears anywhere in this module.
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

    def __repr__(self):
        return f"<Series {render_series(self)}>"


def zero_series(order: int) -> Series:
    return Series([Fraction(0)] * (order + 1))


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


def mul(a: Series, b: Series) -> Series:
    order = min(a.truncation_order, b.truncation_order)
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a.coeffs[: order + 1]):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs[: order + 1 - i]):
            if cb:
                out[i + j] += ca * cb
    return Series(out)


def exp_scaled(c, order: int) -> Series:
    """exp(c*t) truncated: coefficients c^i / i!."""
    c = Fraction(c)
    coeffs = [Fraction(1)]
    for i in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / i)
    return Series(coeffs)


def compose(outer: Series, inner: Series) -> Series:
    """Substitute inner into outer, exact through inner's truncation order.

    The outer series is treated as a polynomial: coefficients beyond its
    stored order are exact zeros.  The inner series must have zero constant
    term, otherwise the substitution is not defined for formal series.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    order = inner.truncation_order
    result = zero_series(order)
    for c in reversed(outer.coeffs):
        result = mul(result, inner)
        result = Series([result.coeffs[0] + c] + list(result.coeffs[1:]))
    return result


def revert(s: Series) -> Series:
    """Compositional inverse r with r(s(t)) = t through the truncation order.

    Solved degree by degree: the system is triangular because s^k has
    valuation k.  Requires zero constant term and nonzero linear term.
    """
    order = s.truncation_order
    if order < 1 or s.coeffs[0] != 0:
        raise ValueError("series must have zero constant term")
    if s.coeffs[1] == 0:
        raise ValueError("series must have nonzero linear term")
    r = [Fraction(0)] * (order + 1)
    # partial[d] accumulates sum_{k<d} r_k s^k while powers of s are built up
    s_power = Series([Fraction(1)] + [Fraction(0)] * order)   # s^0
    partial = [Fraction(0)] * (order + 1)
    lead = [Fraction(1)]                                      # leading coeffs s_1^k
    for d in range(1, order + 1):
        s_power = mul(s_power, s)
        lead.append(lead[-1] * s.coeffs[1])
        target = Fraction(1) if d == 1 else Fraction(0)
        r[d] = (target - partial[d]) / lead[d]
        for i in range(order + 1):
            partial[i] += r[d] * s_power.coeffs[i]
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


def render_series(s: Series) -> str:
    """Text form 'c0 + c1*t + c2*t^2 + ...' listing every coefficient."""
    parts = []
    for i, c in enumerate(s.coeffs):
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*t")
        else:
            parts.append(f"{c}*t^{i}")
    return " + ".join(parts)


def series_json(s: Series):
    """Ordered coefficient array of exact strings."""
    return [str(c) for c in s.coeffs]
