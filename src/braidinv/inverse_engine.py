"""Lifting the integral back to braid sums: the inverse problem.

A lift is a tuple P indexed by degree of exact rationals, each a reduced
(numerator, denominator) integer pair with a positive denominator, so that
two lifts are equal as values exactly when they are equal as tuples; P[0]
is (0, 1).  It stands for sum_k P[k] tau^k for the seed tau = q - q^-1.
The integral is a ring homomorphism with Z(q^n) = exp(n t/2), so
Z(tau) = 2 sinh(t/2), and the lift of t is the series P with
2 sinh(P/2) = t.  The solve finds it from P'^2 = 4/(4 + t^2) by one
integer recurrence, a square root by convolution, without forming Z(tau).
Its closed form, the Taylor series of 2 arcsinh(t/2), is built from
factorials and shares no arithmetic with the solve; solved_lift compares
the two exactly.  The module reads no braid sum and builds no Fraction.
The expansions at q - q^-1 come from their own closed form, in
pair_expansions.
"""

import math
from operator import mul

from .render import _reduced


def _recurrence_lift(order: int) -> tuple:
    """Coefficients 0..order of the lift P for the seed q - q^-1.

    P' = 1/cosh(P/2) and 4 cosh^2(P/2) = 4 + t^2, so P'^2 = 4/(4 + t^2)
    = sum_j (-t^2/4)^j: P is odd, and V_j = 16^j [t^(2j)] P' are integers.
    Squaring P' by convolution gives 2 V_j = (-4)^j - sum_(0<i<j) V_i V_(j-i)
    from V_0 = 1; then P_(2j+1) = V_j / (16^j (2j + 1)).  A halving that
    leaves a remainder raises ArithmeticError.
    """
    V, coeffs = [1], [(0, 1), (1, 1)]
    for j in range(1, (order + 1) // 2):
        inner = V[1:j]
        twice = (-4) ** j - sum(map(mul, inner, reversed(inner)))
        if twice % 2:
            raise ArithmeticError(f"odd value before the halving at degree "
                                  f"{2 * j + 1} of the lift")
        V.append(twice // 2)
        coeffs += [(0, 1), _reduced(V[j], 16 ** j * (2 * j + 1))]
    return tuple(coeffs)


def closed_form_lift(order: int) -> tuple:
    """The lift for the seed q - q^-1: the Taylor series of 2 arcsinh(t/2).

    The degree 2k+1 coefficient is (-1)^k (2k)! / (16^k (k!)^2 (2k+1)).
    Independent of the lift solve by construction.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError(f"order {order} is not odd and positive")
    coeffs = [(0, 1)] * (order + 1)
    for k in range((order + 1) // 2):
        num = (-1) ** k * math.factorial(2 * k)
        den = 16 ** k * math.factorial(k) ** 2 * (2 * k + 1)
        coeffs[2 * k + 1] = _reduced(num, den)
    return tuple(coeffs)


def solved_lift(order: int) -> tuple:
    """The lift for the seed q - q^-1 through an odd, positive order, by the
    solve, checked coefficient for coefficient against closed_form_lift.
    The order is checked, by the closed form, before the solve.
    """
    expected = closed_form_lift(order)
    P = _recurrence_lift(order)
    if P != expected:
        raise ArithmeticError(f"the solved lift differs from 2 arcsinh(t/2) "
                              f"through order {order}")
    return P
