"""The lift's truncations expanded at the seed q - q^-1, in closed form.

The order-r truncation (r = 2R - 1) is antisymmetric on the odd exponents
x_m = 2m - 1, m <= R, and its integral is t through degree r + 1.  Those R
conditions are a Vandermonde system in the x_m^2, so the sum is unique:
a_m = (1/x_m) prod_(l != m) x_l^2 / (x_l^2 - x_m^2) on q^x_m - q^-x_m, the
weights for f'(0) on the staggered nodes +-1/2, +-3/2, ... (Fornberg, Math.
Comp. 51, 1988).  Every expansion a request reads is certified from its
own cells, which share no arithmetic with the closed form: under
theta = q d/dq it must satisfy theta^2 e = c (q - q^-1)^r with
t-coefficient 1, which proves it integrates to t through degree r + 1
and so, by uniqueness, proves the expansion.  A power p > 1 is checked
through the integral, Z(e^p) = t^p through degree r + p; that proves less
than the power, and the product rests on the tests' reference (ROADMAP
item 19).  The pair coefficients approach signed multiples of 4/pi; the
float columns that compare them with that limit are built in the
commands.

Every sum here is symmetric or antisymmetric under q -> q^-1, so it is
held as a PairSum, its positive half and q^0 term in integers, and built,
multiplied, certified and printed without Fractions; only a power's check
reads it as a braid sum.
"""

import math
from functools import reduce

from .render import _reduced


class PairSum:
    """(zero + sum_(n > 0) half[n] (q^n + sign q^-n)) / den.

    sign is -1 for an antisymmetric sum, which has no q^0 term, and +1 for
    a symmetric one.  The numerators are nonzero integers and den is
    positive, reduced by their gcd.  Instances are immutable by convention.
    """

    __slots__ = ("half", "zero", "den", "sign")

    def __init__(self, half: dict, zero: int, den: int, sign: int):
        if sign < 0 and zero:
            raise ArithmeticError("an antisymmetric pair sum has a q^0 term")
        half = {n: c for n, c in half.items() if c}
        g = math.gcd(den, zero, *half.values())
        self.half = {n: c // g for n, c in half.items()}
        self.zero, self.den, self.sign = zero // g, den // g, sign

    def braid_sum(self):
        """The same sum as a BraidSum, for the general operations."""
        from .braid_ring import BraidSum
        nums = {0: self.zero}
        for n, c in self.half.items():
            nums[n], nums[-n] = c, self.sign * c
        return BraidSum(nums, self.den)


def closed_form_expansion(order: int) -> PairSum:
    """The order-r truncation, r = 2R - 1 odd and positive.

    Multiplying out the Vandermonde weights gives
    a_m = (-1)^(m-1) R C(2R, R) C(2R-1, R-m) / (2^(4R-3) x_m^2), here over
    the common denominator 2^(4R-3) L, L the least common multiple of the
    x_m^2.
    """
    R = (order + 1) // 2
    odd = range(1, order + 1, 2)
    L = math.lcm(*odd) ** 2
    scale = R * math.comb(2 * R, R) * L
    half = {x: (-1) ** m * math.comb(order, R - 1 - m) * (scale // (x * x))
            for m, x in enumerate(odd)}
    return PairSum(half, 0, 2 ** (4 * R - 3) * L, -1)


def times(a: PairSum, b: PairSum) -> PairSum:
    """The product ab, formed from the halves and q^0 terms alone:
    (q^i + s q^-i)(q^j + t q^-j) is q^(i+j) + t q^(i-j) + s q^(j-i) +
    st q^-(i+j), a pair of sign st at i + j and at |i - j|, or (s + t) q^0
    at i = j."""
    s, t = a.sign, b.sign
    half = {j: a.zero * y for j, y in b.half.items()}
    for i, x in a.half.items():
        half[i] = half.get(i, 0) + b.zero * x
    zero = a.zero * b.zero
    for i, x in a.half.items():
        for j, y in b.half.items():
            xy = x * y
            half[i + j] = half.get(i + j, 0) + xy
            if i > j:
                half[i - j] = half.get(i - j, 0) + t * xy
            elif j > i:
                half[j - i] = half.get(j - i, 0) + s * xy
            else:
                zero += (s + t) * xy
    return PairSum(half, zero, a.den * b.den, s * t)


def tau_expansions(orders, power: int = 1) -> list:
    """Each order's expansion, the orders odd, positive and given once,
    raised to the power, as PairSums, each certified to integrate to
    t^power through degree order + power.  Powers above one have no
    reference values; they are reported.
    """
    if power < 1:
        raise ValueError("power must be positive")
    orders = list(orders)
    for at, r in enumerate(orders):
        if r < 1 or r % 2 == 0:
            raise ValueError(f"order {r} is not odd and positive")
        if r in orders[:at]:
            raise ValueError(f"order {r} given twice")
    powers = []
    for r in orders:
        e = closed_form_expansion(r)
        # theta^2 e = sum x^2 half[x] (q^x - q^-x) / den is c (q - q^-1)^r,
        # whose cell at x = r - 2k is c (-1)^k C(r, k), and Z(e)'s
        # t-coefficient, sum x half[x] / den, is 1.  Z(theta^2 e) = 4 Z(e)''
        # and Z((q - q^-1)^r) = O(t^r), so Z(e) = t through degree r + 1
        d = [x * x * e.half.get(x, 0) for x in range(r, 0, -2)]
        flat = e.sign < 0 and e.half.keys() == set(range(1, r + 1, 2)) \
            and sum(x * c for x, c in e.half.items()) == e.den \
            and all((k + 1) * d[k + 1] == (k - r) * d[k]
                    for k in range(len(d) - 1))
        b = reduce(times, [e] * power)
        if flat and power > 1:
            from .kontsevich import Z
            flat = Z(b.braid_sum(), r + power) == \
                ((0, 1),) * power + ((1, 1),) + ((0, 1),) * r
        if not flat:
            raise ArithmeticError(f"lift is not flat through order {r} "
                                  f"at power {power}")
        powers.append(b)
    return powers


def asymptotic_check(j: int, r_list) -> list:
    """(order, pair-j coefficient) for each order, ascending, the
    coefficient a reduced (numerator, denominator) pair.

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
    return [(r, _reduced(b.half[j], b.den))
            for r, b in zip(orders, tau_expansions(orders))]
