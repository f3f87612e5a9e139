"""Lifting the integral back to braid sums: the inverse problem.

A LiftPoly is a polynomial applied to a seed braid sum of filtration order
one.  Strengthening finds the polynomial P whose lifted element has
integral t through a target order.  The integral is a ring homomorphism,
so Z(P(seed)) = P(Z(seed)) and P is the series reversion of Z(seed): one
triangular solve in the series ring, checked once at the braid level by
expanding P at the seed and integrating.  For the seed q - q^-1 this is
the reversion of 2 sinh(t/2), with the classical closed-form arcsinh
coefficients as an independent route to the same numbers.

The pair expansion rewrites a lift over the antisymmetric pairs
q^n - q^-n, whose coefficients approach signed multiples of 4/pi; the
asymptotic comparisons here are the only place floating point appears, and
only in reported columns, never in the computation.
"""

from fractions import Fraction

from .braid_ring import BraidSum, coefficient, filtration_order, multiply, tau
from .kontsevich import Z
from .power_series import (arcsinh2_closed_form, common_denominator, revert,
                           t_series, two_sinh_half)


class LiftPoly:
    """Polynomial-in-seed representative of a lift.

    coeffs maps degree to coefficient; with the default seed q - q^-1 only
    odd degrees occur, but a general order-one seed may force every degree.
    """

    def __init__(self, coeffs: dict, seed: BraidSum | None = None):
        clean = {}
        for k, c in coeffs.items():
            c = Fraction(c)
            if c:
                if k < 1:
                    raise ValueError("lift degrees start at 1")
                clean[int(k)] = c
        self.coeffs = clean
        self.seed = tau() if seed is None else seed

    def truncate(self, order: int) -> "LiftPoly":
        kept = {k: c for k, c in self.coeffs.items() if k <= order}
        return LiftPoly(kept, self.seed)

    def apply(self) -> BraidSum:
        """Expand the polynomial at the seed into a braid sum.

        With seed = S / q over integers, the result is sum_k (c_k / q^k) S^k:
        integer powers of S weighted by integers over one denominator.
        """
        seed_ints, q = common_denominator(self.seed.terms.values())
        seed = list(zip(self.seed.terms, seed_ints))
        degrees = sorted(self.coeffs)
        weights, den = common_denominator(self.coeffs[k] / q ** k
                                          for k in degrees)
        out = {}
        power = {0: 1}
        current = 0
        for k, w in zip(degrees, weights):
            while current < k:
                nxt = {}
                for i, a in power.items():
                    for n, c in seed:
                        nxt[i + n] = nxt.get(i + n, 0) + a * c
                power = nxt
                current += 1
            for n, a in power.items():
                out[n] = out.get(n, 0) + w * a
        return BraidSum({n: Fraction(v, den) for n, v in out.items()})


class PairExpansion:
    """Coefficients over the antisymmetric pairs q^n - q^-n, odd n > 0."""

    def __init__(self, pair_coeffs: dict):
        self.pair_coeffs = {int(n): Fraction(c)
                            for n, c in pair_coeffs.items() if Fraction(c)}

    def rebuild(self) -> BraidSum:
        terms = {}
        for n, c in self.pair_coeffs.items():
            terms[n] = c
            terms[-n] = -c
        return BraidSum(terms)


def strengthen_to(seed: BraidSum, order: int) -> LiftPoly:
    """The lift of t through the target order (odd, >= 1) for an order-one seed.

    Solved in the series ring as the reversion of Z(seed), then checked
    once at the braid level: the integral of the lift expanded at the seed
    must equal t.  The check shares no arithmetic with the series powers
    inside the reversion.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    if filtration_order(seed) != 1:
        raise ValueError("seed must have filtration order 1")
    P = LiftPoly(dict(enumerate(revert(Z(seed, order)).coeffs)), seed)
    if Z(P.apply(), order) != t_series(order):
        raise ArithmeticError(f"lift is not flat through order {order}")
    return P


def reversion_lift(order: int) -> LiftPoly:
    """The same coefficients by series reversion of 2 sinh(t/2)."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    return LiftPoly(dict(enumerate(revert(two_sinh_half(order)).coeffs)))


def closed_form_lift(order: int) -> LiftPoly:
    """The same coefficients from the arcsinh closed form."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    return LiftPoly(dict(enumerate(arcsinh2_closed_form(order).coeffs)))


class SymmetricExpansion:
    """Constant plus coefficients over q^n + q^-n, for even powers."""

    def __init__(self, constant: Fraction, sym_coeffs: dict):
        self.constant = constant
        self.sym_coeffs = sym_coeffs


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


class AsymptoticRow:
    def __init__(self, order: int, coeff: Fraction, target, abs_error):
        self.order = order
        self.coeff = coeff
        self.target = target          # mpmath float
        self.abs_error = abs_error    # mpmath float


def pair_limit_target(j: int, digits: int = 50):
    """Signed limit of the pair-j coefficient: (-1)^((j-1)/2) * 4/(pi j^2)."""
    import mpmath
    with mpmath.workdps(digits):
        sign = -1 if (j - 1) // 2 % 2 else 1
        return sign * 4 / (mpmath.pi * j * j)


def asymptotic_check(j: int, r_list, digits: int = 50) -> list[AsymptoticRow]:
    """Distance of the pair-j coefficient to its limit, order by order.

    All coefficients are exact; the limit involves pi, so the comparison
    column is floating point at the requested precision.
    """
    import mpmath
    if j < 1 or j % 2 == 0:
        raise ValueError("pair index must be odd and positive")
    if not r_list:
        raise ValueError("need at least one order")
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
