"""Lifting the integral back to braid sums: the inverse problem.

A lift is a tuple P indexed by degree of exact rationals, each a reduced
(numerator, denominator) integer pair with a positive denominator, so that
two lifts are equal as values exactly when they are equal as tuples; P[0]
is (0, 1).  It stands for sum_k P[k] tau^k for the seed tau = q - q^-1.
The integral is a ring homomorphism with Z(q^n) = exp(n t/2), so
Z(tau) = 2 sinh(t/2), and the lift of t is the series P with
2 sinh(P/2) = t: P = 2 arcsinh(t/2), built from its binomial ratio and
proved by (4 + t^2) P'' + t P' = 0 without forming Z(tau).  The module
reads no braid sum and builds no Fraction.  The expansions at q - q^-1
come from their own closed form, in pair_expansions.
"""

import math


def closed_form_lift(order: int) -> tuple:
    """The lift for the seed q - q^-1: the Taylor series of 2 arcsinh(t/2).

    The degree 2k+1 coefficient is (-1)^k C(2k, k) / (16^k (2k + 1)).
    C(2k, k) is C(2k - 2, k - 1) times 2(2k - 1)/k, and 2 divides it
    exactly popcount(k) times (Kummer), so its odd part over
    2^(4k - popcount(k)) (2k + 1) is reduced by one gcd against 2k + 1.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError(f"order {order} is not odd and positive")
    coeffs, central = [(0, 1), (1, 1)], 1
    for k in range(1, (order + 1) // 2):
        central = central * (4 * k - 2) // k
        twos, odd = k.bit_count(), 2 * k + 1
        rest = central >> twos
        g = math.gcd(rest % odd, odd)
        rest //= g
        coeffs += [(0, 1), (-rest if k % 2 else rest,
                            odd // g << 4 * k - twos)]
    return tuple(coeffs)


def solved_lift(order: int) -> tuple:
    """closed_form_lift(order), returned only once a certificate that reads
    its pairs alone proves it is 2 arcsinh(t/2), the one solution of
    (4 + t^2) P'' + t P' = 0, or 4(n + 1)(n + 2) P_(n+2) = -n^2 P_n, with
    P_0 = 0 and P_1 = 1: it checks those two, every even coefficient
    (0, 1), every odd one reduced over a positive denominator, and the
    recurrence at each odd degree; a failure raises ArithmeticError.  A
    denominator is 2^e times a small odd number, so each check is a
    product by a small number and a shift.
    """
    P = closed_form_lift(order)
    head = f"the lift is not 2 arcsinh(t/2) through order {order}"
    if len(P) != order + 1 or P[1] != (1, 1) or set(P[::2]) != {(0, 1)}:
        raise ArithmeticError(f"{head}: it is not t plus odd powers")
    split = []  # (numerator, odd part, power of 2) at each odd degree
    for n, (num, den) in zip(range(1, order + 1, 2), P[1::2]):
        twos = (den & -den).bit_length() - 1
        if den < 1 or twos and num % 2 == 0 or \
                math.gcd(num % (den >> twos), den >> twos) > 1:
            raise ArithmeticError(f"{head}: degree {n} is not a reduced pair")
        split.append((num, den >> twos, twos))
    for n, (a, b, e), (c, d, f) in zip(range(1, order, 2), split, split[1:]):
        if c * (4 * (n + 1) * (n + 2) * b) << e != a * -(n * n * d) << f:
            raise ArithmeticError(f"{head}: degree {n + 2} breaks "
                                  f"(4 + t^2) P'' + t P' = 0")
    return P
