"""Abel values of the divergent alternating sums 1^k - 3^k + 5^k - ...

The generating function x/(1 + x^2) = sum (-1)^m x^(2m+1) turns each sum
into the value at x = 1 of theta^k applied to it, theta being x d/dx.  The
operator stays inside the family N(x)/(1 + x^2)^k of rational functions, so
the whole calculus is exact: no limits are taken numerically.  The values
vanish at odd k and produce half Euler numbers at even k.

The residue relation at odd s >= 3 reduces algebraically to the Abel value
at exponent s - 2: the pi factors cancel before any number is produced.
The degree-1 integral trace of the pair partial sums, scaled by pi, is
4 leibniz_partial(r), which tends to pi.
"""

from __future__ import annotations

from fractions import Fraction


class RationalFunctionRep:
    """N(x) / (1 + x^2)^k with a dense numerator coefficient vector."""

    def __init__(self, numerator: tuple, denominator_power: int):
        if denominator_power < 1:
            raise ValueError("denominator power must be at least 1")
        self.numerator = tuple(Fraction(c) for c in numerator)
        self.denominator_power = denominator_power

    def value_at_one(self) -> Fraction:
        return sum(self.numerator, Fraction(0)) / 2 ** self.denominator_power


def theta(rep: RationalFunctionRep) -> RationalFunctionRep:
    """Apply x d/dx, raising the denominator power by one.

    With k the current power, the new numerator is
    x N'(x) (1 + x^2) - 2 k x^2 N(x).
    """
    k = rep.denominator_power
    n = rep.numerator
    out = [Fraction(0)] * (len(n) + 2)
    for i, c in enumerate(n):
        if i:
            out[i] += i * c          # x N'
            out[i + 2] += i * c      # x N' x^2
        out[i + 2] -= 2 * k * c      # -2k x^2 N
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return RationalFunctionRep(tuple(out), k + 1)


def theta_value(k: int) -> Fraction:
    """Abel value of 1^k - 3^k + 5^k - ..., exactly.

    theta^k applied to x / (1 + x^2), the Abel transform of the alternating
    odd signs, evaluated at x = 1.
    """
    if k < 0:
        raise ValueError("negative order")
    rep = RationalFunctionRep((Fraction(0), Fraction(1)), 1)
    for _ in range(k):
        rep = theta(rep)
    return rep.value_at_one()


def leibniz_partial(r: int) -> Fraction:
    """Partial sum 1 - 1/3 + 1/5 - ... with r terms, exact.

    Summed by halving the range so the growing common denominators meet
    only log-many times; the flat left-to-right sum is quadratic in r.
    """
    if r < 1:
        raise ValueError("need at least one term")

    def block(lo, hi):
        # recursion depth is log2(r), nowhere near the interpreter limit
        if hi - lo == 1:
            return Fraction((-1) ** lo, 2 * lo + 1)
        mid = (lo + hi) // 2
        return block(lo, mid) + block(mid, hi)

    return block(0, r)

