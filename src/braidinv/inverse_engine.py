"""Lifting the integral back to braid sums: the inverse problem.

A lift is a tuple P of Fractions indexed by degree, with P[0] = 0, like
every series in the package; it stands for sum_k P[k] seed^k for a seed
braid sum of filtration order one.  The integral is a ring homomorphism
with Z(q^n) = exp(n t/2), so for seed = sum_n c_n q^n the lift of t is the
series P with sum_n c_n exp(n P/2) = t, found degree by degree on integers
without forming Z(seed).  For the seed q - q^-1 it is the reversion of
2 sinh(t/2), whose closed form, the Taylor series of 2 arcsinh(t/2), shares
no arithmetic with the solve; solved_lift compares the two exactly.  The
expansions at q - q^-1 come from their own closed form, in pair_expansions.
"""

import math
from fractions import Fraction
from operator import add, mul

from .braid_ring import BraidSum, tau


def _lift_series(seed: BraidSum, order: int) -> tuple:
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
    return tuple(coeffs)


def closed_form_lift(order: int) -> tuple:
    """The lift for the seed q - q^-1: the Taylor series of 2 arcsinh(t/2).

    The degree 2k+1 coefficient is (-1)^k (2k)! / (16^k (k!)^2 (2k+1)).
    Independent of the lift solve by construction.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError(f"order {order} is not odd and positive")
    coeffs = [Fraction(0)] * (order + 1)
    for k in range((order + 1) // 2):
        num = (-1) ** k * math.factorial(2 * k)
        den = 16 ** k * math.factorial(k) ** 2 * (2 * k + 1)
        coeffs[2 * k + 1] = Fraction(num, den)
    return tuple(coeffs)


def solved_lift(order: int) -> tuple:
    """The lift for the seed q - q^-1 through an odd, positive order, by the
    solve, checked coefficient for coefficient against closed_form_lift.
    The order is checked, by the closed form, before the solve.
    """
    expected = closed_form_lift(order)
    P = _lift_series(tau(), order)
    if P != expected:
        raise ArithmeticError(f"the solved lift differs from 2 arcsinh(t/2) "
                              f"through order {order}")
    return P
