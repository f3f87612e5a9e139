"""Independent reference implementations used to cross-check the package.

Everything in this file is written directly from the mathematical definitions
and never imports the package under test.  Each oracle gives a second,
structurally unrelated route to a value that the package computes, so a test
that compares the two is a genuine consistency check rather than a tautology.
The command line parser is the argparse one braidinv used before it read
argv from its own flag table, kept verbatim as that table's reference; the
float cells are the ones braidinv printed through mpmath before it printed
them from integer arithmetic, kept as that arithmetic's reference.
"""

from fractions import Fraction
import argparse
import math
import sys

import mpmath


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


def tau_power(k):
    """(q - q^-1)^k, k >= 0, by k multiplications."""
    out = {0: Fraction(1)}
    for _ in range(k):
        out = braid_mul(out, TAU)
    return out


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
