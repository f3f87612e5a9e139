"""The lift's truncations expanded at the seed q - q^-1, in closed form.

The order-r truncation (r = 2R - 1) is antisymmetric on the odd exponents
x_m = 2m - 1, m <= R, and its integral is t through degree r + 1.  Those R
conditions are a Vandermonde system in the x_m^2, so the sum is unique:
a_m = (1/x_m) prod_(l != m) x_l^2 / (x_l^2 - x_m^2) on q^x_m - q^-x_m, the
weights for f'(0) on the staggered nodes +-1/2, +-3/2, ... (Fornberg, Math.
Comp. 51, 1988).  The top order a request reads is certified on its integer
moments, which share no arithmetic with the closed form; uniqueness makes
that sufficient.  The pair coefficients approach signed multiples of 4/pi;
the float columns that compare them with that limit are built in the
commands.

Every sum here is symmetric or antisymmetric under q -> q^-1, so it is
held as a PairSum, its positive half and q^0 term in integers, and built,
certified and printed without the braid ring or any Fraction.  A power
above one is the one general product: it loads the braid ring, multiplies
BraidSums and checks the symmetry of the result.
"""

import math
from functools import reduce
from operator import mul, ne


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
        return BraidSum.over(nums, self.den)


def closed_form_expansion(order: int) -> PairSum:
    """The order-r truncation, r = 2R - 1 odd and positive.

    Multiplying out the Vandermonde weights gives
    a_m = (-1)^(m-1) (2R-1)!! C(2R-1, R-m) / (8^(R-1) (R-1)! x_m^2), here
    over the common denominator 8^(R-1) (R-1)! L, L the least common
    multiple of the x_m^2.
    """
    R = (order + 1) // 2
    odd = range(1, order + 1, 2)
    L = math.lcm(*odd) ** 2
    scale = math.prod(odd) * L
    half = {x: (-1) ** m * math.comb(order, R - 1 - m) * (scale // (x * x))
            for m, x in enumerate(odd)}
    return PairSum(half, 0, 8 ** (R - 1) * math.factorial(R - 1) * L, -1)


def odd_moments(b: PairSum):
    """Lazily and unbounded, the positive half's integer moments
    sum_(n > 0) half[n] n^i at odd i = 1, 3, 5, ..."""
    weights = [c * n for n, c in b.half.items()]
    squares = [n * n for n in b.half]
    while True:
        yield sum(weights)
        weights = list(map(mul, weights, squares))


def tau_expansions(orders, power: int = 1) -> list:
    """Each order's expansion, the orders odd, positive and given once,
    raised to the power, as PairSums.  The top order is certified flat.
    An odd power is antisymmetric and an even one symmetric: the
    expansions are so by construction, and a power above one is checked
    for it once.  Powers above one have no reference values; they are
    reported.
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
    # Z(b)'s degree-i coefficient is b's moment sum_n c_n n^i over all n,
    # over b.den 2^i i!, so Z(b) = t when that moment is 2 b.den at i = 1
    # and 0 at every other i <= top.  On an antisymmetric sum the even
    # moments vanish and the odd ones are twice the positive half's
    if b.sign > 0 or any(map(ne, [b.den] + [0] * (top // 2), odd_moments(b))):
        raise ArithmeticError(f"lift is not flat through order {top}")
    if power == 1:
        return expansions
    from .braid_ring import BraidSum, multiply
    sign = -1 if power % 2 else 1
    powers = []
    for r, b in zip(orders, expansions):
        full = b.braid_sum()
        p = reduce(multiply, [full] * power)
        if p != BraidSum.over({-n: sign * c for n, c in p.nums.items()},
                              p.den):
            raise ArithmeticError(f"power {power} of the order {r} expansion "
                                  "lost its symmetry under q -> q^-1")
        powers.append(PairSum({n: c for n, c in p.nums.items() if n > 0},
                              p.nums.get(0, 0), p.den, sign))
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
    rows = []
    for r, b in zip(orders, tau_expansions(orders)):
        g = math.gcd(b.half[j], b.den)
        rows.append((r, (b.half[j] // g, b.den // g)))
    return rows
