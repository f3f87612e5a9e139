"""Independent reference implementations used to cross-check the package.

Everything in this file is written directly from the mathematical definitions
and imports the package under test only where braid builds a braid sum,
read_z reads the integral's reduced pairs and the three lift references
reduce their coefficients.
Each oracle gives a second, structurally unrelated route to a value that the
package computes, so a test that compares the two is a genuine consistency
check rather than a tautology.
The command line parser is the argparse one braidinv used before it read
argv from its own flag table, kept verbatim as that table's reference; the
float cells are the ones braidinv printed through mpmath before it printed
them from integer arithmetic, kept as that arithmetic's reference.  The
product of two braid sums and their field comparison are the ones the
package held before its powers became products of pair sums, and the
linear combination and the reading of rationals into integer fields the
ones it held before a braid sum was built from integers only; they read
and build BraidSums through the values passed in.  The filtration order
of one braid sum, by both routes, is the one the package held before
condition (c) compared each item's prefixes; it reads a BraidSum's
fields and is the pairwise reference for that condition, as classify,
on Fractions, is for the trace classes.  The lift solve for a general
seed is the one the package held before it lifted q - q^-1 alone, the
reference for that solve; the lift of q - q^-1 by a square-root
convolution and by factorials are the two it held before it built that
lift from its binomial ratio, the references for that builder.
"""

from fractions import Fraction
from operator import add, mul
import argparse
import math
import sys

import mpmath

from braidinv.render import _reduced


# ---------------------------------------------------------------------------
# minimal dense series helpers (lists of Fraction, index = degree)

def series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca == 0:
            continue
        for j, cb in enumerate(b[: order + 1 - i]):
            if cb:
                out[i + j] += ca * cb
    return out


def exp_series(c, order):
    """exp(c t) through the order: c^i / i!."""
    return [Fraction(c) ** i / math.factorial(i) for i in range(order + 1)]


def series_compose(outer, inner):
    """outer(inner(t)) through inner's order, by Horner; needs inner[0] = 0."""
    if inner[0] != 0:
        raise ValueError("inner series must have zero constant term")
    order = len(inner) - 1
    out = [Fraction(0)] * (order + 1)
    for c in reversed(outer):
        out = series_mul(out, inner, order)
        out[0] += c
    return out


def series_recip(a, order):
    """Multiplicative inverse of a series with nonzero constant term."""
    if a[0] == 0:
        raise ValueError("no reciprocal: zero constant term")
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if k < len(a) and a[k]:
                acc += a[k] * out[n - k]
        out[n] = -inv0 * acc
    return out


def lagrange_revert(s):
    """Compositional inverse by the Lagrange inversion formula.

    Input: coefficient list of s with s[0] = 0 and s[1] != 0.
    Output: coefficient list r of the same length with r(s(t)) = t, where
    r_n = (1/n) [t^(n-1)] (t/s(t))^n.
    """
    order = len(s) - 1
    if s[0] != 0 or order < 1 or s[1] == 0:
        raise ValueError("series not invertible under composition")
    quotient = series_recip(s[1:], order - 1)          # t/s(t)
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(1, order + 1):
        power = series_mul(power, quotient, order - 1)
        out[n] = power[n - 1] / n
    return out


# ---------------------------------------------------------------------------
# braid sums as {exponent: Fraction} maps, and stepwise strengthening

TAU = {1: Fraction(1), -1: Fraction(-1)}


def braid_lincomb(a, x, b, y):
    """x a + y b, term by term."""
    out = {n: x * c for n, c in a.items()}
    for n, c in b.items():
        out[n] = out.get(n, Fraction(0)) + y * c
    return {n: c for n, c in out.items() if c}


def braid_mul(a, b):
    """Product in the group algebra: q^i q^j = q^(i+j)."""
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + ca * cb
    return {n: c for n, c in out.items() if c}


def fields(terms):
    """(nums, den) of a map of exponents to rationals: the nonzero integer
    numerators over the least common denominator, as a BraidSum takes them
    and, being coprime to it as a whole, as it stores them."""
    values = {n: Fraction(c) for n, c in terms.items() if c}
    den = math.lcm(*(c.denominator for c in values.values()))
    return {n: c.numerator * (den // c.denominator)
            for n, c in values.items()}, den


def braid(values):
    """The BraidSum of a map of exponents to rationals, built from its
    fields: the one place this module imports the package."""
    from braidinv.braid_ring import BraidSum
    return BraidSum(*fields(values))


def terms(b):
    """A BraidSum's nonzero coefficients read back as Fractions."""
    return {n: Fraction(c, b.den) for n, c in b.nums.items()}


def combine(a, x, b, y):
    """x a + y b of two BraidSums and two rationals, term by term as
    Fractions, built by a's own type."""
    return type(a)(*fields(braid_lincomb(terms(a), x, terms(b), y)))


def multiply(a, b):
    """The reference product of two BraidSums, convolving their integer
    numerators by the group law q^i q^j = q^(i+j), over the product of
    their denominators; built by a's own type, as this module imports no
    package code."""
    nums = {}
    for i, x in a.nums.items():
        for j, y in b.nums.items():
            nums[i + j] = nums.get(i + j, 0) + x * y
    return type(a)(nums, a.den * b.den)


def same(a, *others):
    """Whether BraidSums are equal, field by field: the package reduces
    each sum to one canonical (nums, den), so equal sums have equal
    fields."""
    return all((b.nums, b.den) == (a.nums, a.den) for b in others)


def pair_fields(b):
    """A BraidSum's fields read as a pair sum's: (positive half, q^0
    numerator, den, sign), after checking that every term off q^0 has its
    mirror times the sign; a sum with no such term reads as symmetric."""
    half = {n: c for n, c in b.nums.items() if n > 0}
    sign = next((b.nums.get(-n, 0) // c for n, c in half.items()), 1)
    if any(b.nums.get(-n) != sign * c for n, c in b.nums.items() if n):
        raise ValueError("neither symmetric nor antisymmetric")
    return half, b.nums.get(0, 0), b.den, sign


def tau_power(k):
    """The BraidSum (q - q^-1)^k, k >= 0, by k multiplications."""
    out = {0: Fraction(1)}
    for _ in range(k):
        out = braid_mul(out, TAU)
    return braid(out)


def braid_poly(coeffs, seed):
    """sum_k coeffs[k] seed^k by repeated multiplication, k >= 0; seed^0 is
    the identity q^0."""
    out = {}
    power = {0: Fraction(1)}
    for k in range(max(coeffs, default=-1) + 1):
        if k:
            power = braid_mul(power, seed)
        for n, c in power.items():
            out[n] = out.get(n, Fraction(0)) + coeffs.get(k, 0) * c
    return {n: c for n, c in out.items() if c}


def integral(b, order):
    """Degree-i coefficients sum_n b_n (n/2)^i / i! of exp(n t / 2), i <= order."""
    return [sum((c * Fraction(n, 2) ** i for n, c in b.items()), Fraction(0))
            / math.factorial(i) for i in range(order + 1)]


def strengthen_step(coeffs, m, seed=TAU):
    """One correction of a lift polynomial at degree m >= 2.

    Precondition: the integral of the lift expanded at the seed equals t
    below degree m.  If its degree-m coefficient is c, subtracting
    c / s1^m times seed^m removes it, where s1 is the degree-1 coefficient
    of the seed's integral (seed^m has integral s1^m t^m + ...).
    """
    if m < 2:
        raise ValueError("correction steps start at degree 2")
    z = integral(braid_poly(coeffs, seed), m)
    if z[:m] != [0, 1] + [0] * (m - 2):
        raise ValueError(f"steps applied out of order: not flat below degree {m}")
    out = dict(coeffs)
    out[m] = out.get(m, Fraction(0)) - z[m] / integral(seed, 1)[1] ** m
    return {k: c for k, c in out.items() if c}


def strengthen_stepwise(seed, order):
    """The lift of t through the order, one correction step per degree, as
    the tuple of its coefficients at degrees 0..order."""
    coeffs = {1: 1 / integral(seed, 1)[1]}
    for m in range(2, order + 1):
        coeffs = strengthen_step(coeffs, m, seed)
    return tuple(coeffs.get(k, Fraction(0)) for k in range(order + 1))


def arcsinh2_binomial(order):
    """2 arcsinh(t/2) through the order, by integrating its derivative
    (1 + t^2/4)^(-1/2) term by term; the binomial series has
    c_(k+1) = c_k * -(2k+1) / (8(k+1)) at t^(2k+2)."""
    out = [Fraction(0)] * (order + 1)
    c = Fraction(1)
    for k in range((order + 1) // 2):
        out[2 * k + 1] = c / (2 * k + 1)
        c *= Fraction(-(2 * k + 1), 8 * (k + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# the lift for q - q^-1 as reduced pairs, by the two routes the package held
# before it built the lift from its binomial ratio

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


def factorial_lift(order: int) -> tuple:
    """The Taylor series of 2 arcsinh(t/2) through an odd order, whose
    degree 2k+1 coefficient is (-1)^k (2k)! / (16^k (k!)^2 (2k+1)), each
    reduced by one gcd."""
    coeffs = [(0, 1)] * (order + 1)
    for k in range((order + 1) // 2):
        num = (-1) ** k * math.factorial(2 * k)
        den = 16 ** k * math.factorial(k) ** 2 * (2 * k + 1)
        coeffs[2 * k + 1] = _reduced(num, den)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# the lift for any seed of filtration order one, on integers: the solve the
# package held before it lifted q - q^-1 alone

def _lift_series(nums: dict, den: int, order: int) -> tuple:
    """Coefficients 0..order of the series P with sum_n c_n exp(n P/2) = t,
    for the seed sum_n c_n q^n with c_n = nums[n] / den, den > 0.

    The seed must have filtration order one.  With u = P/2 and
    E_n = exp(n u), the ODE E_n' = n u' E_n and sum_n c_n E_n = t fix one
    more derivative of u at 0 per step.  The step runs on integers: the
    numerators gamma_n over their denominator C, S = sum_n gamma_n n,
    and the scaled derivatives U_m = S^(2m-1) u^(m)(0) and, for k >= 1,
    F_n,k = S^(2k-1) E_n^(k)(0).  Only the final coefficients divide.
    """
    exponents = list(nums)
    gammas, C = list(nums.values()), den
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
    coeffs = [(0, 1)]
    scale = S                               # S^(2m-1) m!
    for m in range(1, order + 1):
        coeffs.append(_reduced(2 * U[m], scale))
        scale *= S * S * (m + 1)
    return tuple(coeffs)


def root_multiplicity_at_one(b):
    """Multiplicity of q = 1 as a root of the Laurent polynomial sum_n b_n q^n.

    Shifts to an ordinary polynomial on a dense coefficient list and divides
    by (q - 1) synthetically while the remainder, the value at q = 1, is
    zero.  The zero sum vanishes to every order: math.inf.
    """
    b = {n: c for n, c in b.items() if c}
    if not b:
        return math.inf
    low = min(b)
    poly = [Fraction(0)] * (max(b) - low + 1)
    for n, c in b.items():
        poly[n - low] = Fraction(c)
    multiplicity = 0
    while sum(poly) == 0:
        # quotient coefficient of q^(i-1) is the sum of poly[j] for j >= i
        quotient = []
        acc = Fraction(0)
        for c in reversed(poly[1:]):
            acc += c
            quotient.append(acc)
        poly = quotient[::-1]
        multiplicity += 1
    return multiplicity


INFINITE = math.inf


def _moment_order(b) -> int:
    # first j with sum_n c_n n^j nonzero; bounded by the term count because
    # the root multiplicity of a Laurent polynomial at q = 1 is below it
    exponents = list(b.nums)
    weights = list(b.nums.values())
    for j in range(len(exponents) + 1):
        if sum(weights):
            return j
        weights = [w * n for w, n in zip(weights, exponents)]
    raise ArithmeticError("moment order exceeded its theoretical bound")


def _derivative_order(b) -> int:
    # first k with the k-th derivative at q = 1, sum_n c_n n(n-1)...(n-k+1),
    # nonzero; Stirling numbers relate these falling-factorial moments to
    # the power moments triangularly, so both routes stop at the same k;
    # scaling by den leaves every vanishing sum at zero
    exponents = list(b.nums)
    weights = list(b.nums.values())
    for k in range(len(exponents) + 1):
        if sum(weights):
            return k
        weights = [w * (n - k) for w, n in zip(weights, exponents)]
    raise ArithmeticError("derivative order exceeded its theoretical bound")


def filtration_order(b):
    """Filtration order of a BraidSum: an integer, or INFINITE for the zero
    sum.

    Both the moment route and the derivative route are evaluated on b's
    own terms and compared on every call; a disagreement would mean a bug
    in one of them.  On a difference b_i - b_j this is the pairwise
    reference for condition (c).
    """
    if not b.nums:
        return INFINITE
    order = _moment_order(b)
    check = _derivative_order(b)
    if order != check:
        raise ArithmeticError(
            f"order routes disagree: moments {order}, derivatives {check}")
    return order


def classify(values, min_diffs):
    """The class of a trace of rationals, read as Fractions, from its
    absolute increments after the leading zero ones: constant with none
    left, insufficient with fewer than min_diffs, converging if they never
    rise and end below the first, diverging if they never fall and end
    above it, else inconclusive.  The one the package held before it
    classified integer numerators over a common denominator."""
    values = [Fraction(v) for v in values]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    diffs = diffs[next((i for i, d in enumerate(diffs) if d), len(diffs)):]
    if not diffs:
        return "constant"
    if len(diffs) < min_diffs:
        return "insufficient"
    if diffs == sorted(diffs, reverse=True) and diffs[-1] < diffs[0]:
        return "converging"
    if diffs == sorted(diffs) and diffs[-1] > diffs[0]:
        return "diverging"
    return "inconclusive"


# ---------------------------------------------------------------------------
# naive exact linear algebra

def gauss_inverse(rows):
    """Inverse by textbook Gauss-Jordan elimination over Fraction.

    Raises ZeroDivisionError on a singular matrix.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# closed forms for row 1 and column 1 of the balanced inverse

def euler_product_row(r):
    """Coefficients of prod_{k=1}^{r} (1 - x^2/k^2), ascending, length 2r + 1."""
    coeffs = [Fraction(1)]
    for k in range(1, r + 1):
        nxt = coeffs + [Fraction(0), Fraction(0)]
        for i, c in enumerate(coeffs):
            nxt[i + 2] -= c / (k * k)
        coeffs = nxt
    return coeffs


def difference_weights(r):
    """Centered weights c_n, n = 0, 1, -1, ..., r, -r, for f'(0) on nodes -r..r.

    c_0 = 0 and c_{+-k} = +-(-1)^(k+1) (r!)^2 / (k (r-k)! (r+k)!).
    """
    out = [Fraction(0)]
    for k in range(1, r + 1):
        c = Fraction((-1) ** (k + 1) * math.factorial(r) ** 2,
                     k * math.factorial(r - k) * math.factorial(r + k))
        out += [c, -c]
    return out


# ---------------------------------------------------------------------------
# Euler numbers from the sech generating series

def euler_numbers_sech(kmax):
    """E_k for even k <= kmax, via sech(x) = 1/cosh(x) = sum E_k x^k / k!."""
    cosh = [Fraction(0)] * (kmax + 1)
    for m in range(0, kmax + 1, 2):
        cosh[m] = Fraction(1, math.factorial(m))
    sech = series_recip(cosh, kmax)
    return {k: int(sech[k] * math.factorial(k)) for k in range(0, kmax + 1, 2)}


# ---------------------------------------------------------------------------
# antisymmetric pair expansion by direct binomial expansion

def pair_expand_binomial(poly):
    """Expand an odd polynomial in tau = q - 1/q into pair components.

    Input: map from odd degree k to coefficient.  Uses
    tau^k = sum_i (-1)^i C(k, i) (q^(k-2i) - q^-(k-2i)) for 0 <= i < k/2,
    which follows from the binomial theorem and q * (1/q) = 1.
    Output: map from odd n > 0 to the coefficient of (q^n - q^-n).
    """
    pairs = {}
    for k, coeff in poly.items():
        if k <= 0 or k % 2 == 0:
            raise ValueError("only odd positive degrees expand into pairs")
        for i in range((k + 1) // 2):
            n = k - 2 * i
            term = coeff * ((-1) ** i) * math.comb(k, i)
            pairs[n] = pairs.get(n, Fraction(0)) + term
    return {n: c for n, c in pairs.items() if c}


def exact(value):
    """A value of braidinv's integer tau paths as Fractions: a (numerator,
    denominator) pair as a Fraction, a lift (a tuple of pairs) as a tuple
    of Fractions, and a pair sum as the {exponent: Fraction} map of its
    nonzero terms on both halves and at q^0, read from its fields."""
    if isinstance(value, tuple) and isinstance(value[0], int):
        return Fraction(*value)
    if isinstance(value, tuple):
        return tuple(map(exact, value))
    terms = {0: Fraction(value.zero, value.den)}
    for n, c in value.half.items():
        terms[n] = Fraction(c, value.den)
        terms[-n] = Fraction(value.sign * c, value.den)
    return {n: c for n, c in terms.items() if c}


def read_pairs(value):
    """A reduced (numerator, denominator) pair of the moment-matrix solver or
    the integral as a Fraction, and a list of them, or of such lists, as a list; a pair
    not in lowest terms over a positive denominator fails, as it would not
    print as str of its Fraction."""
    if isinstance(value, list):
        return [read_pairs(item) for item in value]
    num, den = value
    if den <= 0 or math.gcd(num, den) != 1:
        raise AssertionError(f"{value} is not a reduced pair")
    return Fraction(num, den)


def read_z(b, order):
    """The package's Z(b) through the order, its pairs read as a list of
    Fractions by read_pairs."""
    from braidinv.kontsevich import Z
    return read_pairs(list(Z(b, order)))


def pair_half(terms):
    """The pair coefficients of an antisymmetric exponent map: the positive
    half, after checking that every term has its negated mirror."""
    if any(terms.get(-n) != -c for n, c in terms.items()):
        raise ValueError("not antisymmetric under q -> 1/q")
    return {n: c for n, c in terms.items() if n > 0}


# ---------------------------------------------------------------------------
# numerical Abel summation with extrapolation

def abel_alternating_odd_powers(kmax, eps_num, eps_den, digits):
    """Evaluate sum_m (-1)^m (2m+1)^k x^(2m+1) at x = 1 - eps for k = 0..kmax.

    Uses fixed-point integers scaled by 10**digits; the terms near the peak
    are around 1e26 for k = 6 and eps = 1e-4, so float arithmetic would lose
    everything to cancellation.  Summation runs until the power underflows
    the fixed-point resolution.
    """
    scale = 10 ** digits
    x_fixed = scale * (eps_den - eps_num) // eps_den
    x_sq = x_fixed * x_fixed // scale
    totals = [0] * (kmax + 1)
    x_pow = x_fixed
    m = 0
    sign = 1
    while x_pow:
        signed = sign * x_pow
        base = 2 * m + 1
        weight = 1
        for k in range(kmax + 1):
            totals[k] += signed * weight
            weight *= base
        sign = -sign
        m += 1
        x_pow = x_pow * x_sq // scale
    return [Fraction(t, scale) for t in totals]


def neville_at_zero(points):
    """Polynomial extrapolation of (x, y) samples to x = 0, exact."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - level):
            ys[i] = (xs[i + level] * ys[i] - xs[i] * ys[i + 1]) / (xs[i + level] - xs[i])
    return ys[0]


def abel_theta_numeric(kmax, digits=60):
    """Abel limits of 1^k - 3^k + 5^k - ... for k = 0..kmax, numerically.

    Samples the series at x = 1 - eps for eps = 4e-4, 2e-4, 1e-4 and removes
    the leading eps terms by extrapolation.  Returns a list of Fractions that
    approximate the limits to far better than six significant digits.
    """
    eps_list = [(4, 10000), (2, 10000), (1, 10000)]
    samples = {Fraction(a, b): abel_alternating_odd_powers(kmax, a, b, digits)
               for a, b in eps_list}
    out = []
    for k in range(kmax + 1):
        pts = [(eps, samples[eps][k]) for eps in sorted(samples, reverse=True)]
        out.append(neville_at_zero(pts))
    return out


# ---------------------------------------------------------------------------
# small exact sums

def harmonic_second(r):
    return sum(Fraction(1, k * k) for k in range(1, r + 1))


def leibniz_direct(r):
    return sum(Fraction((-1) ** m, 2 * m + 1) for m in range(r))


# ---------------------------------------------------------------------------
# the float cells of basis --solve-t, beta --s 1 and asymptotics as mpmath
# 1.3 printed them at `digits` significant digits

def mpmath_fraction_cell(x, digits):
    """An exact Fraction, as basis --solve-t printed its distance."""
    with mpmath.workdps(digits):
        return mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, digits)


def mpmath_leibniz_cells(exact, digits):
    """over_pi and abs_error_to_1 of beta --s 1 for exact = 4 * a partial
    sum."""
    with mpmath.workdps(digits):
        estimate = mpmath.mpf(exact.numerator) / exact.denominator / mpmath.pi
        return [mpmath.nstr(estimate, digits),
                mpmath.nstr(abs(estimate - 1), digits)]


def mpmath_asymptotic_cells(j, c, digits):
    """approx, target and abs_error of asymptotics for the coefficient c."""
    with mpmath.workdps(digits):
        sign = -1 if (j - 1) // 2 % 2 else 1
        target = sign * 4 / (mpmath.pi * j * j)
        approx = mpmath.mpf(c.numerator) / c.denominator
        return [mpmath.nstr(approx, digits), mpmath.nstr(target, digits),
                mpmath.nstr(abs(approx - target), digits)]


def mpmath_pi(digits):
    """mpmath's pi at `digits` significant digits, as an exact Fraction."""
    with mpmath.workdps(digits):
        sign, man, exp, _ = (+mpmath.pi)._mpf_
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


# ---------------------------------------------------------------------------
# the argparse command line parser, verbatim but for the --digits default


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braidinv",
                     description="exact computations for the inverse problem "
                                 "of the two-strand braid integral")
    subs = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    output.add_argument("--digits", type=int, default=50,
                        help="float precision in significant digits "
                             "(default 50)")
    output.add_argument("--out", default=None, help="write output to a file")

    def command(name, help):
        return subs.add_parser(name, parents=[output], help=help)

    p = command("lift", "lift coefficients")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=("strengthen", "reversion"),
                   default="strengthen")

    p = command("zmap", "series and graded values of a braid sum")
    p.add_argument("--braid", default="tau")
    p.add_argument("--order", type=int, default=7)
    p.add_argument("--jmax", type=int, default=None)

    p = command("qexpand", "pair expansion of a lift")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--power", type=int, default=1)

    p = command("asymptotics", "pair coefficients against 4/pi limits")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--orders", required=True,
                   help="comma separated lift orders")

    p = command("beta", "regularized sums and the Leibniz check")
    p.add_argument("--s", type=int, required=True)

    p = command("basis", "moment matrices and inverse entries")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--unbalanced", action="store_true")
    p.add_argument("--entry", default=None, help="ROW,COL (1-based)")
    p.add_argument("--solve-t", action="store_true", dest="solve_t")
    p.add_argument("--with-factorials", action="store_true",
                   dest="with_factorials")

    p = command("trace", "finite-window convergence diagnostics")
    p.add_argument("--sequence", default="tauhat",
                   help="tauhat, pairs, harmonic, or a JSON file path")
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--window", type=int, default=8)

    p = command("reproduce", "check every bundled reference table")
    p.add_argument("--table", action="append",
                   choices=("beta", "lift", "onefive", "pairs", "zeta2"),
                   help="run a specific table; may repeat")

    return parser
