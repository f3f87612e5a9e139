"""Lifting the integral back to braid sums: the inverse problem.

A LiftPoly is a polynomial applied to a seed braid sum of filtration order
one.  The strengthening iteration raises, one degree at a time, the order
through which the integral of the lifted element equals t; for the seed
q - q^-1 its limit is the reversion of 2 sinh(t/2), with the classical
closed-form arcsinh coefficients as a third route to the same numbers.

The pair expansion rewrites a lift over the antisymmetric pairs
q^n - q^-n, whose coefficients approach signed multiples of 4/pi; the
asymptotic comparisons here are the only place floating point appears, and
only in reported columns, never in the computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .braid_ring import (BraidSum, coefficient, combine, filtration_order,
                         identity, multiply, tau)
from .kontsevich import Z, Z_i
from .power_series import arcsinh2_closed_form, revert, two_sinh_half


@dataclass(frozen=True)
class LiftPoly:
    """Polynomial-in-seed representative of a lift.

    coeffs maps degree to coefficient; with the default seed q - q^-1 only
    odd degrees occur, but a general order-one seed may force every degree.
    """

    coeffs: dict
    seed: BraidSum = field(default_factory=tau)

    def __post_init__(self):
        clean = {}
        for k, c in self.coeffs.items():
            c = Fraction(c)
            if c:
                if k < 1:
                    raise ValueError("lift degrees start at 1")
                clean[int(k)] = c
        object.__setattr__(self, "coeffs", clean)

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def truncate(self, order: int) -> "LiftPoly":
        kept = {k: c for k, c in self.coeffs.items() if k <= order}
        return LiftPoly(kept, self.seed)

    def apply(self) -> BraidSum:
        """Expand the polynomial at the seed into a braid sum."""
        out = BraidSum()
        power = identity()
        current = 0
        for k in sorted(self.coeffs):
            while current < k:
                power = multiply(power, self.seed)
                current += 1
            out = combine(out, 1, power, self.coeffs[k])
        return out


@dataclass(frozen=True)
class PairExpansion:
    """Coefficients over the antisymmetric pairs q^n - q^-n, odd n > 0."""

    pair_coeffs: dict

    def __post_init__(self):
        clean = {int(n): Fraction(c) for n, c in self.pair_coeffs.items()
                 if Fraction(c)}
        object.__setattr__(self, "pair_coeffs", clean)

    def rebuild(self) -> BraidSum:
        terms = {}
        for n, c in self.pair_coeffs.items():
            terms[n] = c
            terms[-n] = -c
        return BraidSum(terms)


def strengthen_step(P: LiftPoly, m: int) -> LiftPoly:
    """One correction step at degree m >= 2.

    Precondition: the integral of P applied to its seed equals t through
    degree m - 1.  The step subtracts c times the degree-m seed power,
    where c is the degree-m series coefficient; for the default seed the
    even steps find c = 0 and change nothing.
    """
    if m < 2:
        raise ValueError("correction steps start at degree 2")
    z = Z(P.apply(), m)
    expected = [Fraction(0), Fraction(1)] + [Fraction(0)] * (m - 2)
    if list(z.coeffs[:m]) != expected:
        raise ValueError(f"steps applied out of order: not flat below degree {m}")
    c = z.coeffs[m]
    if c == 0:
        return P
    coeffs = dict(P.coeffs)
    coeffs[m] = coeffs.get(m, Fraction(0)) - c
    return LiftPoly(coeffs, P.seed)


def strengthen_to(seed: BraidSum, order: int) -> LiftPoly:
    """Iterate correction steps through the target order (odd, >= 1)."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    if filtration_order(seed) != 1:
        raise ValueError("seed must have filtration order 1")
    P = LiftPoly({1: 1 / Z_i(seed, 1)}, seed)
    for m in range(2, order + 1):
        P = strengthen_step(P, m)
    return P


def reversion_lift(order: int) -> LiftPoly:
    """The same coefficients by series reversion of 2 sinh(t/2)."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    r = revert(two_sinh_half(order))
    coeffs = {k: c for k, c in enumerate(r.coeffs) if k >= 1 and c}
    return LiftPoly(coeffs)


def closed_form_lift(order: int) -> LiftPoly:
    """The same coefficients from the arcsinh closed form."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    s = arcsinh2_closed_form(order)
    coeffs = {k: c for k, c in enumerate(s.coeffs) if k >= 1 and c}
    return LiftPoly(coeffs)


@dataclass(frozen=True)
class SymmetricExpansion:
    """Constant plus coefficients over q^n + q^-n, for even powers."""

    constant: Fraction
    sym_coeffs: dict


def q_expand(P: LiftPoly, power: int = 1):
    """Regroup a power of the expanded lift into pair combinations.

    Only defined for the default seed.  An odd power of an odd polynomial in
    q - q^-1 is antisymmetric under q -> q^-1 and yields a PairExpansion;
    an even power is symmetric and yields a SymmetricExpansion.  A failure
    of that symmetry means the expansion itself is broken.  No reference
    values exist for powers above one; they are reported computations.
    """
    if power < 1:
        raise ValueError("power must be positive")
    if P.seed != tau():
        raise ValueError("pair expansion requires the seed q - q^-1")
    base = P.apply()
    b = base
    for _ in range(power - 1):
        b = multiply(b, base)
    # antisymmetry also forces the q^0 coefficient to vanish
    sign = -1 if power % 2 else 1
    if any(coefficient(b, -n) != sign * c for n, c in b.terms.items()):
        raise ArithmeticError(f"power {power} lost its symmetry under q -> q^-1")
    positive = {n: c for n, c in b.terms.items() if n > 0}
    if power % 2:
        return PairExpansion(positive)
    return SymmetricExpansion(coefficient(b, 0), positive)


class AsymptoticRow(NamedTuple):
    order: int
    coeff: Fraction
    target: object     # mpmath float
    abs_error: object  # mpmath float


def pair_limit_target(j: int, digits: int = 50):
    """Signed limit of the pair-j coefficient: (-1)^((j-1)/2) * 4/(pi j^2)."""
    with mpmath.workdps(digits):
        sign = -1 if (j - 1) // 2 % 2 else 1
        return sign * 4 / (mpmath.pi * j * j)


def asymptotic_check(j: int, r_list, digits: int = 50) -> list[AsymptoticRow]:
    """Distance of the pair-j coefficient to its limit, order by order.

    All coefficients are exact; the limit involves pi, so the comparison
    column is floating point at the requested precision.
    """
    if j < 1 or j % 2 == 0:
        raise ValueError("pair index must be odd and positive")
    for r in r_list:
        if r < j:
            raise ValueError(f"order {r} is below the pair index {j}")
    top = max(r_list)
    full = strengthen_to(tau(), top)
    rows = []
    with mpmath.workdps(digits):
        target = pair_limit_target(j, digits)
        for r in sorted(r_list):
            pe = q_expand(full.truncate(r))
            c = pe.pair_coeffs.get(j, Fraction(0))
            approx = mpmath.mpf(c.numerator) / c.denominator
            rows.append(AsymptoticRow(r, c, target, abs(approx - target)))
    return rows
