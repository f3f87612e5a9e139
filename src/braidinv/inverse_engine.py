"""Lifting the integral back to braid sums: the inverse problem.

A LiftPoly is a polynomial applied to a seed braid sum of filtration order
one.  Strengthening finds the polynomial P whose lifted element has
integral t through a target order.  The integral is a ring homomorphism
with Z(q^n) = exp(n t/2), so for seed = sum_n c_n q^n the polynomial P is
the series with sum_n c_n exp(n P/2) = t.  One solve finds it degree by
degree on integers, without forming Z(seed); the result is checked once at
the braid level by expanding P at the seed and integrating.  For the seed
q - q^-1 this is the reversion of 2 sinh(t/2), with the classical
closed-form arcsinh coefficients as an independent route to the same
numbers.

An expanded lift is antisymmetric under q -> q^-1, so its coefficients at
positive exponents are its coefficients over the pairs q^n - q^-n; they
approach signed multiples of 4/pi.  The comparison with that limit prints
float columns, as `beta --s 1` and `basis --solve-t` do, but floats never
enter a computation: the kernels here read braid sums' integer numerators.
"""

from fractions import Fraction
from operator import add, mul

from .braid_ring import BraidSum, coefficient, filtration_order, multiply, tau
from .kontsevich import Z
from .power_series import arcsinh2_closed_form, common_denominator, t_series


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

        With seed = S / q and c_k = w_k / den over integers, the result is
        sum_k w_k q^(top-k) S^k over den q^top, top the highest degree:
        integer powers of S weighted by integers over one denominator.
        """
        seed = list(self.seed.nums.items())
        q = self.seed.den
        degrees = sorted(self.coeffs)
        weights, den = common_denominator(self.coeffs[k] for k in degrees)
        top = max(degrees, default=0)
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
            w *= q ** (top - k)
            for n, a in power.items():
                out[n] = out.get(n, 0) + w * a
        return BraidSum.over(out, den * q ** top)


def _lift_series(seed: BraidSum, order: int) -> list:
    """Coefficients 0..order of the series P with sum_n c_n exp(n P/2) = t.

    seed = sum_n c_n q^n must have filtration order one.  With u = P/2 and
    E_n = exp(n u), the ODE E_n' = n u' E_n and sum_n c_n E_n = t fix one
    more derivative of u at 0 per step.  The step runs on integers: the
    seed's numerators gamma_n over their denominator C, S = sum_n gamma_n n,
    and the scaled derivatives U_m = S^(2m-1) u^(m)(0) and, for k >= 1,
    F_n,k = S^(2k-1) E_n^(k)(0).  Only the final coefficients divide.
    """
    exponents = list(seed.nums)
    gammas, C = list(seed.nums.values()), seed.den
    S = sum(g * n for g, n in zip(gammas, exponents))
    U = [0, C]
    F = [[1, n * C] for n in exponents]
    binom = [1]
    for k in range(1, order):
        # E_n^(k+1) = n sum_(j<=k) C(k,j) u^(j+1) E_n^(k-j) by Leibniz; acc
        # is the part j < k, and sum_n c_n E_n^(k+1) = 0 then gives u^(k+1)
        binom = [1, *map(add, binom, binom[1:]), 1]
        row = list(map(mul, binom, U[1:]))
        accs = [sum(map(mul, row, reversed(f))) for f in F]
        u_next = -sum(g * n * a for g, n, a in zip(gammas, exponents, accs))
        U.append(u_next)
        for n, f, acc in zip(exponents, F, accs):
            f.append(n * (S * acc + u_next))
    coeffs = [Fraction(0)]
    den = S                                 # S^(2m-1) m!
    for m in range(1, order + 1):
        coeffs.append(Fraction(2 * U[m], den))
        den *= S * S * (m + 1)
    return coeffs


def strengthen_to(seed: BraidSum, order: int) -> LiftPoly:
    """The lift of t through the target order (odd, >= 1) for an order-one seed.

    Solved on the series side as sum_n c_n exp(n P/2) = t, then checked
    once at the braid level: the integral of the lift expanded at the seed
    must equal t.  The check shares no arithmetic with the solve.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    if filtration_order(seed) != 1:
        raise ValueError("seed must have filtration order 1")
    P = LiftPoly(dict(enumerate(_lift_series(seed, order))), seed)
    if Z(P.apply(), order) != t_series(order):
        raise ArithmeticError(f"lift is not flat through order {order}")
    return P


def reversion_lift(order: int) -> LiftPoly:
    """The same coefficients by reverting 2 sinh(t/2) = Z(q - q^-1)."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    return LiftPoly(dict(enumerate(_lift_series(tau(), order))))


def closed_form_lift(order: int) -> LiftPoly:
    """The same coefficients from the arcsinh closed form."""
    if order < 1 or order % 2 == 0:
        raise ValueError("target order must be odd and positive")
    return LiftPoly(dict(enumerate(arcsinh2_closed_form(order))))


def q_expand(P: LiftPoly, power: int = 1) -> BraidSum:
    """A power of the expanded lift, checked for its symmetry under q -> q^-1.

    Only defined for the default seed.  An odd power of an odd polynomial in
    q - q^-1 is antisymmetric, so its positive half holds the coefficients
    over the pairs q^n - q^-n; an even power is symmetric, a constant plus
    coefficients over q^n + q^-n.  A failure of that symmetry means the
    expansion itself is broken.  No reference values exist for powers above
    one; they are reported computations.
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
    if any(b.nums.get(-n) != sign * c for n, c in b.nums.items()):
        raise ArithmeticError(f"power {power} lost its symmetry under q -> q^-1")
    return b


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
            c = coefficient(q_expand(full.truncate(r)), j)
            approx = mpmath.mpf(c.numerator) / c.denominator
            rows.append(AsymptoticRow(r, c, target, abs(approx - target)))
    return rows
