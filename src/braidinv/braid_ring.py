"""Group algebra of the two-strand braid group over exact rationals.

The group is infinite cyclic, generated by the half twist.  Writing q for the
generator and q^-1 for its inverse, the rational group algebra is the ring of
Laurent polynomials in q.  A BraidSum stores an element as a sparse map from
integer exponent to nonzero Fraction coefficient.

The finite-type filtration order of an element is computed along two
independent routes that must agree, both over the stored terms only: the
number of leading vanishing power moments sum_n c_n n^i, and the number of
leading vanishing derivatives at q = 1 (the root multiplicity there).  The
zero element has order INFINITE.
"""

import math
from fractions import Fraction

from .power_series import common_denominator

INFINITE = math.inf


class BraidSum:
    """Finite formal sum of braid powers with rational coefficients.

    Instances are immutable by convention; every operation returns a new
    value, so sharing between threads needs no coordination.  Zero
    coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exponent, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[int(exponent)] = coeff
        self._terms = clean

    @property
    def terms(self):
        """Exponent-to-coefficient map.  Treat as read-only."""
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, BraidSum):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"<BraidSum {render(self)}>"


def identity() -> BraidSum:
    return BraidSum({0: 1})


def sigma() -> BraidSum:
    """The half twist q."""
    return BraidSum({1: 1})


def sigma_bar() -> BraidSum:
    """The inverse half twist q^-1."""
    return BraidSum({-1: 1})


def sigma_power(n: int) -> BraidSum:
    return BraidSum({n: 1})


def tau() -> BraidSum:
    """The difference q - q^-1 of the two half twists."""
    return BraidSum({1: 1, -1: -1})


def pair(n: int) -> BraidSum:
    """The antisymmetric pair q^n - q^-n, n > 0."""
    if n <= 0:
        raise ValueError("pair exponent must be positive")
    return BraidSum({n: 1, -n: -1})


def combine(a: BraidSum, ca, b: BraidSum, cb) -> BraidSum:
    """Linear combination ca*a + cb*b in canonical form."""
    ca = Fraction(ca)
    cb = Fraction(cb)
    terms = {}
    for exponent, coeff in a.terms.items():
        terms[exponent] = ca * coeff
    for exponent, coeff in b.terms.items():
        terms[exponent] = terms.get(exponent, Fraction(0)) + cb * coeff
    return BraidSum(terms)


def multiply(a: BraidSum, b: BraidSum) -> BraidSum:
    """Convolution product induced by the group law."""
    terms = {}
    for i, ca in a.terms.items():
        for j, cb in b.terms.items():
            key = i + j
            terms[key] = terms.get(key, Fraction(0)) + ca * cb
    return BraidSum(terms)


def coefficient(b: BraidSum, n: int) -> Fraction:
    """Stored coefficient of exponent n, zero if absent."""
    return b.terms.get(n, Fraction(0))


def moments(b: BraidSum):
    """b's common denominator den and an unbounded lazy iterator of moments.

    With b_n = B_n / den over integers, it yields sum_n B_n n^i, i = 0, 1, ...
    """
    exponents = list(b.terms)
    numerators, den = common_denominator(b.terms.values())

    def power_sums(weights):
        while True:
            yield sum(weights)
            weights = [w * n for w, n in zip(weights, exponents)]

    return den, power_sums(numerators)


def _moment_order(b: BraidSum) -> int:
    # first j with sum_n c_n n^j nonzero; bounded by the term count because
    # the root multiplicity of a Laurent polynomial at q = 1 is below it
    _, sums = moments(b)
    for j, total in zip(range(len(b.terms) + 1), sums):
        if total:
            return j
    raise ArithmeticError("moment order exceeded its theoretical bound")


def _derivative_order(b: BraidSum) -> int:
    # first k with the k-th derivative at q = 1, sum_n c_n n(n-1)...(n-k+1),
    # nonzero; Stirling numbers relate these falling-factorial moments to
    # the power moments triangularly, so both routes stop at the same k
    exponents = list(b.terms)
    weights = list(b.terms.values())
    for k in range(len(exponents) + 1):
        if sum(weights):
            return k
        weights = [w * (n - k) for w, n in zip(weights, exponents)]
    raise ArithmeticError("derivative order exceeded its theoretical bound")


def filtration_order(b: BraidSum):
    """Filtration order of b: an integer, or INFINITE for the zero sum.

    Both the moment route and the derivative route are evaluated and
    compared on every call; a disagreement would mean a bug in one of them.
    """
    if not b:
        return INFINITE
    order = _moment_order(b)
    check = _derivative_order(b)
    if order != check:
        raise ArithmeticError(
            f"order routes disagree: moments {order}, derivatives {check}")
    return order


def render(b: BraidSum) -> str:
    """Canonical text form, decreasing exponents, e.g. '1*q^1 + -1*q^-1'."""
    if not b:
        return "0"
    parts = [f"{b.terms[n]}*q^{n}" for n in sorted(b.terms, reverse=True)]
    return " + ".join(parts)
