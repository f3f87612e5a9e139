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
4 leibniz_partial(r), which tends to pi.
"""

from fractions import Fraction


def theta_value(k: int) -> Fraction:
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
    return Fraction(sum(numerator), 2 ** (k + 1))


def leibniz_partial(r: int) -> Fraction:
    """Partial sum 1 - 1/3 + 1/5 - ... with r terms, exact.

    Summed by halving the range so the growing common denominators meet
    only log-many times; the flat left-to-right sum is quadratic in r.
    """
    if r < 1:
        raise ValueError("need at least one term")

    def block(lo, hi):
        # recursion depth is log2(r), nowhere near the interpreter limit
        if hi - lo == 1:
            return Fraction((-1) ** lo, 2 * lo + 1)
        mid = (lo + hi) // 2
        return block(lo, mid) + block(mid, hi)

    return block(0, r)

