"""Abel values of the divergent alternating sums 1^k - 3^k + 5^k - ...

The generating function x/(1 + x^2) = sum (-1)^m x^(2m+1) turns each sum
into the value at x = 1 of theta^k applied to it, theta being x d/dx.  The
operator stays inside the family N(x)/(1 + x^2)^k with integer
polynomials N, so the whole calculus is exact integer arithmetic on the
coefficients of N: no limits are taken numerically.  The values vanish
at odd k and produce half Euler numbers at even k.

The residue relation at odd s >= 3 reduces algebraically to the Abel value
at exponent s - 2: the pi factors cancel before any number is produced.
The degree-1 integral trace of the pair partial sums, scaled by pi, is
4 leibniz_partial(r), which tends to pi.  Both functions return reduced
(numerator, denominator) pairs.
"""

import math

from .render import _reduced


def theta_value(k: int) -> tuple:
    """Abel value of 1^k - 3^k + 5^k - ..., exactly.

    theta^k applied to x / (1 + x^2), the Abel transform of the alternating
    odd signs, evaluated at x = 1.
    """
    if k < 0:
        raise ValueError("negative order")
    # N(x) / (1 + x^2)^p as the integers of N, lowest degree first; theta
    # maps it to (x N'(x) (1 + x^2) - 2p x^2 N(x)) / (1 + x^2)^(p+1)
    numerator = [0, 1]
    for p in range(1, k + 1):
        out = [i * c for i, c in enumerate(numerator)] + [0, 0]
        for i, c in enumerate(numerator):
            out[i + 2] += (i - 2 * p) * c
        numerator = out
    return _reduced(sum(numerator), 2 ** (k + 1))


def leibniz_partial(r: int) -> tuple:
    """Partial sum 1 - 1/3 + 1/5 - ... with r terms, exact.

    Binary splitting on integers.  Terms 2m and 2m+1 pair into
    2 / ((4m+1)(4m+3)); a block of pairs is (p, q) with q the lcm of its
    denominators 2k+1 and p/q its sum, unreduced.  Leaves of 16 pairs are
    summed in small integers, two blocks merge with one gcd of their q's,
    an odd last term merges as one more block, and the sum is reduced once
    at the end; every q is odd, and so is the reduced denominator.
    """
    if r < 1:
        raise ValueError("need at least one term")

    def merge(a, b):
        (p1, q1), (p2, q2) = a, b
        g = math.gcd(q1, q2)
        return p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2

    def block(lo, hi):
        # recursion depth is log2(r / 32), nowhere near the interpreter limit
        if hi - lo <= 16:
            ds = [(4 * m + 1) * (4 * m + 3) for m in range(lo, hi)]
            q = math.lcm(*ds)
            return 2 * sum(map(q.__floordiv__, ds)), q
        mid = (lo + hi) // 2
        return merge(block(lo, mid), block(mid, hi))

    total = block(0, r // 2)
    if r % 2:
        total = merge(total, (1, 2 * r - 1))
    return _reduced(*total)
