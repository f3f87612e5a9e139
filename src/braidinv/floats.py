"""Binary floats as integer pairs, printed as mpmath 1.3 prints them.

The float columns show the digits that mpmath's mpf arithmetic and nstr
gave at --digits d, computed here in integers.  A float is a pair (man,
exp), the value man * 2^exp, as in an mpf.  Each operation is one exact
integer expression, with no gcd, rounded once to the nearest float of
precision(d) bits, ties to even, as every mpf operation is; pi is
floor(pi * 2^(p+20)) rounded to p bits, as mpmath's constant is; nstr
takes mpmath's fixed-point steps to decimal.

This module owns the float-cell policy: requested_digits checks the
precision --digits asks for, column tags a column's name with it and cell
prints one exact rational.  Only the commands that print a float column
load it, so only they read --digits, and a value outside 10 to
INT_STR_DIGITS fails those, before any work, and no other.
"""

import math

from .cli import INT_STR_DIGITS

LOG2_10 = math.log(10, 2)  # the float mpmath sizes its decimal steps with
MAX_EXPONENT = 3500  # past 2^±3500 mpmath prints by another route


def requested_digits(args) -> int:
    """Float precision: --digits, from 10 to INT_STR_DIGITS."""
    if not 10 <= args.digits <= INT_STR_DIGITS:
        raise ValueError(f"float output takes 10 to {INT_STR_DIGITS:,} "
                         f"digits, the input and output limit")
    return args.digits


def column(name: str, digits: int) -> str:
    """Column label tagged with its precision."""
    return f"{name}[{digits}d]"


def cell(num: int, den: int, digits: int) -> str:
    """The rational num/den, in lowest terms with den > 0, to significant
    digits, as mpmath 1.3 printed mpf(num) / den at that precision."""
    return nstr(convert(num, den, precision(digits)), digits)


def precision(digits: int) -> int:
    """mpmath's working precision in bits at `digits` significant digits."""
    return max(1, int(round((digits + 1) * 3.3219280948873626)))


def rounded(num: int, den: int, p: int, exp: int = 0) -> tuple:
    """num / den * 2^exp, den > 0, to the nearest p-bit float, ties to even."""
    n, m = abs(num), den
    if not n:
        return 0, 0
    # scale n/m by 2^-e into [2^(p-1), 2^p)
    e = n.bit_length() - m.bit_length() - p
    if e < 0:
        n <<= -e
    else:
        m <<= e
    if n >= m << p:
        m <<= 1
        e += 1
    q, r = divmod(n, m)
    q += 2 * r > m or 2 * r == m and q & 1
    return (q if num > 0 else -q), e + exp


def times(x: tuple, k: int, p: int) -> tuple:
    """The float x times the integer k, rounded to p bits."""
    return rounded(x[0] * k, 1, p, x[1])


def quotient(x: tuple, y: tuple, p: int) -> tuple:
    """The float x over the nonzero float y, rounded to p bits."""
    (a, ea), (b, eb) = x, y
    return rounded(a if b > 0 else -a, abs(b), p, ea - eb)


def difference(x: tuple, y: tuple, p: int) -> tuple:
    """The float x minus the float y, rounded to p bits."""
    (a, ea), (b, eb) = x, y
    e = min(ea, eb)
    return rounded((a << ea - e) - (b << eb - e), 1, p, e)


def absolute(x: tuple) -> tuple:
    """|x|, exact."""
    return abs(x[0]), x[1]


def convert(num: int, den: int, p: int) -> tuple:
    """mpmath's mpf(num) / den: two roundings."""
    return quotient(rounded(num, 1, p), (den, 0), p)


def pi(p: int) -> tuple:
    """mpmath's pi at p bits: floor(pi * 2^(p+20)) rounded to p bits.

    The floor comes from an integer enclosure of pi * 2^(p+20+guard); the
    guard bits double until both ends of it give the same floor.
    """
    guard = 32
    while True:
        lo, hi = _machin(p + 20 + guard)
        if lo >> guard == hi >> guard:
            return rounded(lo >> guard, 1, p, -(p + 20))
        guard *= 2


def _machin(w: int) -> tuple:
    """Integers lo < pi * 2^w < hi from pi = 16 atan(1/5) - 4 atan(1/239).

    Each atan(1/x) sums n terms exactly, by binary splitting, with n such
    that x^(2n+1) > 2^w; the dropped tail and the floor to an integer each
    cost it less than 1 in units of 2^-w.
    """
    total = 0
    for x, weight in ((5, 16), (239, -4)):
        n = w // (2 * x.bit_length() - 2) + 1
        num, den = _atan_terms(x * x, 0, n)
        total += weight * ((num << w) // (den * x ** (2 * n - 1)))
    return total - 40, total + 40


def _atan_terms(xx: int, a: int, b: int) -> tuple:
    """(P, Q) with P / (Q x^(2b-1)) the sum over a <= k < b of
    (-1)^k / ((2k+1) x^(2k+1)), where xx = x^2."""
    if b - a == 1:
        return (-1) ** a, 2 * a + 1
    m = (a + b) // 2
    p1, q1 = _atan_terms(xx, a, m)
    p2, q2 = _atan_terms(xx, m, b)
    return p1 * q2 * xx ** (b - m) + p2 * q1, q1 * q2


def nstr(x: tuple, digits: int) -> str:
    """mpmath's nstr(x, digits) of the float x.

    Truncate to digits+3 decimals through mpmath's fixed-point steps,
    round half up on the digit after the last kept one, print in fixed
    notation for decimal exponents strictly between min(-digits//3, -5)
    and digits, and strip trailing zeros.
    """
    man, exp = x
    if not man:
        return "0.0"
    n = abs(man)
    top = n.bit_length() + exp  # 2^(top-1) <= |x| < 2^top
    if abs(top) > MAX_EXPONENT:
        raise ValueError(f"a float cell of about 2^{top} is beyond the "
                         f"printable range of 2^±{MAX_EXPONENT}")
    dps = digits + 3
    fixprec = max(int(dps * LOG2_10) + 10 - top, 0)
    fixdps = int(fixprec / LOG2_10 + 0.5)
    shift = fixprec + exp
    fixed = n << shift if shift >= 0 else n >> -shift
    text = _decimal(fixed * 10 ** fixdps >> fixprec, dps)
    exponent = len(text) - fixdps - 1
    if text[digits:digits + 1] >= "5":
        kept = text[:digits].rstrip("9")
        if kept:
            text = kept[:-1] + str(int(kept[-1]) + 1)
        else:
            text = "1"
            exponent += 1
    text = text[:digits].ljust(digits, "0")
    point = 1
    if min(-(digits // 3), -5) < exponent < digits:
        text = "0" * -exponent + text
        point = max(exponent, 0) + 1
        exponent = 0
    text = (text[:point] + "." + text[point:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    sign = "-" if man < 0 else ""
    return f"{sign}{text}e{exponent:+d}" if exponent else sign + text


def _decimal(n: int, size: int) -> str:
    """str(n) of an n of about `size` digits, split in halves past 4000
    digits so that the int-to-str guard never applies."""
    if size < 4000:
        return str(n)
    half = (size + 1) // 2
    high, low = divmod(n, 10 ** half)
    return _decimal(high, half) + _decimal(low, half).rjust(half, "0")
