"""The lift's truncations expanded at the seed q - q^-1, in closed form.

The order-r truncation (r = 2R - 1) is antisymmetric on the odd exponents
x_m = 2m - 1, m <= R, and its integral is t through degree r + 1.  Those R
conditions are a Vandermonde system in the x_m^2, so the sum is unique:
a_m = (1/x_m) prod_(l != m) x_l^2 / (x_l^2 - x_m^2) on q^x_m - q^-x_m, the
weights for f'(0) on the staggered nodes +-1/2, +-3/2, ... (Fornberg, Math.
Comp. 51, 1988).  The top order a request reads, raised to the power p it
asks for, is certified on its integer moments, which share no arithmetic
with the closed form or the product.  At p = 1, by uniqueness, that proves
the expansion; at p > 1 it proves only Z = t^p through degree r + p, and the
product rests on the tests' reference (ROADMAP item 19).  The pair
coefficients approach signed multiples of 4/pi; the float columns that
compare them with that limit are built in the commands.

Every sum here is symmetric or antisymmetric under q -> q^-1, so it is
held as a PairSum, its positive half and q^0 term in integers, and built,
multiplied, certified and printed without the braid ring or any Fraction.
"""

import math
from functools import reduce
from operator import mul, ne

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


def pair_moments(b: PairSum):
    """Lazily and unbounded, b's integer moments sum_n c_n n^i over both
    halves and q^0, at i = 1, 3, ... if b is antisymmetric and at
    i = 0, 2, ... if symmetric (those of the other parity vanish): twice
    the positive half's, plus the q^0 numerator at i = 0."""
    weights = [2 * c * (n if b.sign < 0 else 1) for n, c in b.half.items()]
    squares = [n * n for n in b.half]
    yield sum(weights) + b.zero
    while True:
        weights = list(map(mul, weights, squares))
        yield sum(weights)


def tau_expansions(orders, power: int = 1) -> list:
    """Each order's expansion, the orders odd, positive and given once,
    raised to the power, as PairSums.  The top order's is certified to
    integrate to t^power.  Powers above one have no reference values; they
    are reported.
    """
    if power < 1:
        raise ValueError("power must be positive")
    orders = list(orders)
    for at, r in enumerate(orders):
        if r < 1 or r % 2 == 0:
            raise ValueError(f"order {r} is not odd and positive")
        if r in orders[:at]:
            raise ValueError(f"order {r} given twice")
    powers = [reduce(times, [closed_form_expansion(r)] * power)
              for r in orders]
    top = max(orders)
    b = powers[orders.index(top)]
    # Z(b)'s degree-i coefficient is b's moment sum_n c_n n^i over
    # b.den 2^i i!; the expansion is t through degree top + 1, so its power
    # p is t^p through top + p: b has the sign (-1)^p, and its moments of
    # that parity are b.den 2^p p! at i = p and 0 at every other i <= top + p
    want = [b.den * 2 ** power * math.factorial(power) if i == power else 0
            for i in range(power % 2, top + power + 1, 2)]
    if b.sign != (-1) ** power or any(map(ne, want, pair_moments(b))):
        raise ArithmeticError(f"lift is not flat through order {top} "
                              f"at power {power}")
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
