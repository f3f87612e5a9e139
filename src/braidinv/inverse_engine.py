"""Lifting the integral back to braid sums: the inverse problem.

A lift is a tuple P indexed by degree of exact rationals, each a reduced
(numerator, denominator) integer pair with a positive denominator, so that
two lifts are equal as values exactly when they are equal as tuples; P[0]
is (0, 1).  It stands for sum_k P[k] tau^k for the seed tau = q - q^-1.
The integral is a ring homomorphism with Z(q^n) = exp(n t/2), so
Z(tau) = 2 sinh(t/2), and the lift of t is the series P with
2 sinh(P/2) = t.  The solve finds it through w = exp(P/2) by two integer
recurrences, on convolutions, without forming Z(tau).  Its closed form,
the Taylor series of 2 arcsinh(t/2), is built from factorials and shares
no arithmetic with the solve; solved_lift compares the two exactly.  The
module reads no braid sum and builds no Fraction.  The expansions at
q - q^-1 come from their own closed form, in pair_expansions.
"""

import math
from operator import mul

from .render import _reduced


def _recurrence_lift(order: int) -> tuple:
    """Coefficients 0..order of the lift P for the seed q - q^-1.

    w = exp(P/2) satisfies w - 1/w = t, so w^2 = t w + 1, and
    w (log w)' = w'.  With A_k = 4^k [t^k] w and N_k = 4^k k [t^k] log w,
    integers as the coefficients of w(4t) = 2t + sqrt(1 + 4t^2) are, these
    give 2 A_k = 4 A_(k-1) - sum_(0<i<k) A_i A_(k-i) from A_0 = 1, and
    N_k = k A_k - sum_(0<j<k) N_j A_(k-j); then P_k = 2 N_k / (k 4^k).  A
    halving that leaves a remainder raises ArithmeticError.
    """
    A, N, coeffs = [1], [0], [(0, 1)]
    for k in range(1, order + 1):
        inner = A[1:k]
        twice = 4 * A[k - 1] - sum(map(mul, inner, reversed(inner)))
        if twice % 2:
            raise ArithmeticError(f"odd value before the halving at degree "
                                  f"{k} of the lift")
        A.append(twice // 2)
        N.append(k * A[k] - sum(map(mul, N[1:k], reversed(inner))))
        coeffs.append(_reduced(2 * N[k], k * 4 ** k))
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
