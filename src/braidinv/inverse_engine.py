"""Lifting the integral back to braid sums: the inverse problem.

A lift is a tuple P of Fractions indexed by degree, with P[0] = 0, like
every series in the package; it stands for sum_k P[k] seed^k for a seed
braid sum of filtration order one.  Strengthening finds the P whose
expansion at the seed has integral t through a target order.  The integral
is a ring homomorphism with Z(q^n) = exp(n t/2), so for seed = sum_n c_n q^n
P is the series with sum_n c_n exp(n P/2) = t.  One solve finds it degree
by degree on integers, without forming Z(seed); braid_ring.expand expands
each truncation the caller asks for at the seed in one pass, and the top
one is checked once at the braid level on its integer moments.  For the
seed q - q^-1 this is the reversion of 2 sinh(t/2), whose closed-form
arcsinh coefficients are an independent route to the same numbers.

Every solved lift the commands read comes from tau_lift, whose expansions
at q - q^-1 are checked once to be antisymmetric: their positive exponents
carry the coefficients over the pairs q^n - q^-n, which approach signed
multiples of 4/pi.  Everything here is exact; the float columns that
compare them with that limit are built in the commands.
"""

import math
from fractions import Fraction
from functools import reduce
from operator import add, mul, ne

from .braid_ring import (BraidSum, coefficient, expand, filtration_order,
                         moments, multiply, tau)


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


def strengthen_to(seed: BraidSum, orders) -> tuple:
    """(P, expansions) for an order-one seed: the lift of t through the top
    of the orders, each odd, positive and given once, and its truncations at
    the orders expanded at the seed.  Solved as sum_n c_n exp(n P/2) = t,
    then checked once at the braid level: the top expansion's integer moments
    must make its integral t.  The check shares no arithmetic with the solve.
    """
    for at, r in enumerate(orders):
        if r < 1 or r % 2 == 0:
            raise ValueError(f"order {r} is not odd and positive")
        if r in orders[:at]:
            raise ValueError(f"order {r} given twice")
    if filtration_order(seed) != 1:
        raise ValueError("seed must have filtration order 1")
    top = max(orders)
    P = _lift_series(seed, top)
    expansions = expand(P, seed, orders)
    b = expansions[orders.index(top)]
    # Z(b)'s degree-i coefficient is moment i over b.den 2^i i!, so Z(b) = t
    if any(map(ne, [0, 2 * b.den] + [0] * (top - 1), moments(b))):
        raise ArithmeticError(f"lift is not flat through order {top}")
    return P, expansions


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


def tau_lift(orders, power: int = 1) -> tuple:
    """(P, expansions) of strengthen_to(tau(), orders), each expansion raised
    to the power and checked once for its symmetry under q -> q^-1.

    An odd power of an odd polynomial in q - q^-1 is antisymmetric, so its
    positive half holds the coefficients over the pairs q^n - q^-n; an even
    power is symmetric, a constant plus coefficients over q^n + q^-n.  A
    failure of that symmetry means the expansion itself is broken.  No
    reference values exist for powers above one; they are reported
    computations.
    """
    if power < 1:
        raise ValueError("power must be positive")
    P, expansions = strengthen_to(tau(), orders)
    powers = [reduce(multiply, [b] * power) for b in expansions]
    # antisymmetry also forces the q^0 coefficient to vanish
    sign = -1 if power % 2 else 1
    for r, b in zip(orders, powers):
        mirror = {-n: sign * c for n, c in b.nums.items()}
        if b != BraidSum.over(mirror, b.den):
            raise ArithmeticError(f"power {power} of the order {r} expansion "
                                  "lost its symmetry under q -> q^-1")
    return P, powers


def asymptotic_check(j: int, r_list) -> list:
    """(order, pair-j coefficient) for each order, ascending, by tau_lift.

    The coefficients approach (-1)^((j-1)/2) 4/(pi j^2); that limit
    involves pi, so the comparison with it is left to the float columns.
    """
    if j < 1 or j % 2 == 0:
        raise ValueError("pair index must be odd and positive")
    if not r_list:
        raise ValueError("need at least one order")
    for r in r_list:
        if r < j:
            raise ValueError(f"order {r} is below the pair index {j}")
    orders = sorted(r_list)
    return [(r, coefficient(b, j)) for r, b in zip(orders, tau_lift(orders)[1])]
