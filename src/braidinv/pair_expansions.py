"""The lift's truncations expanded at the seed q - q^-1, in closed form.

The order-r truncation (r = 2R - 1) is antisymmetric on the odd exponents
x_m = 2m - 1, m <= R, and its integral is t through degree r + 1.  Those R
conditions are a Vandermonde system in the x_m^2, so the sum is unique:
a_m = (1/x_m) prod_(l != m) x_l^2 / (x_l^2 - x_m^2) on q^x_m - q^-x_m, the
weights for f'(0) on the staggered nodes +-1/2, +-3/2, ... (Fornberg, Math.
Comp. 51, 1988).  The top order a request reads is certified on its integer
moments, which share no arithmetic with the product; uniqueness makes that
sufficient.  The pair coefficients approach signed multiples of 4/pi; the
float columns that compare them with that limit are built in the commands.
"""

import math
from fractions import Fraction
from functools import reduce
from operator import ne

from .braid_ring import BraidSum, coefficient, moments, multiply


def closed_form_expansion(order: int) -> BraidSum:
    """The order-r truncation, r = 2R - 1 odd and positive: a_1 is the
    product over l = 2..R, and a_(m+1)/a_m = -x_m^2 (R-m) / (x_(m+1)^2 (R+m)).
    """
    R = (order + 1) // 2
    a = Fraction(math.prod(x * x for x in range(3, order + 1, 2)),
                 math.prod(x * x - 1 for x in range(3, order + 1, 2)))
    terms = {}
    for m in range(1, R + 1):
        x = 2 * m - 1
        terms[x], terms[-x] = a, -a
        a *= Fraction(-x * x * (R - m), (x + 2) ** 2 * (R + m))
    return BraidSum(terms)


def tau_expansions(orders, power: int = 1) -> list:
    """Each order's expansion, the orders odd, positive and given once,
    raised to the power.  The top order is certified flat, and every result
    is checked once for its symmetry under q -> q^-1: an odd power is
    antisymmetric, its positive half the coefficients over q^n - q^-n, and
    an even one symmetric, a constant plus coefficients over q^n + q^-n.
    Powers above one have no reference values; they are reported.
    """
    if power < 1:
        raise ValueError("power must be positive")
    orders = list(orders)
    for at, r in enumerate(orders):
        if r < 1 or r % 2 == 0:
            raise ValueError(f"order {r} is not odd and positive")
        if r in orders[:at]:
            raise ValueError(f"order {r} given twice")
    expansions = [closed_form_expansion(r) for r in orders]
    top = max(orders)
    b = expansions[orders.index(top)]
    # Z(b)'s degree-i coefficient is moment i over b.den 2^i i!, so Z(b) = t
    if any(map(ne, [0, 2 * b.den] + [0] * (top - 1), moments(b))):
        raise ArithmeticError(f"lift is not flat through order {top}")
    powers = [reduce(multiply, [b] * power) for b in expansions]
    # antisymmetry also forces the q^0 coefficient to vanish
    sign = -1 if power % 2 else 1
    for r, b in zip(orders, powers):
        mirror = {-n: sign * c for n, c in b.nums.items()}
        if b != BraidSum.over(mirror, b.den):
            raise ArithmeticError(f"power {power} of the order {r} expansion "
                                  "lost its symmetry under q -> q^-1")
    return powers


def asymptotic_check(j: int, r_list) -> list:
    """(order, pair-j coefficient) for each order, ascending.

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
    return [(r, coefficient(b, j))
            for r, b in zip(orders, tau_expansions(orders))]
