"""Property tests for the integer kernels and the braid ring.

revert, Z and LiftPoly.apply work on integer numerators over one common
denominator; each property compares them with a Fraction-only route that
never does.  The braid ring laws and the filtration order are checked
against the ring axioms and the synthetic-division oracle, and the
Lagrange-row moment-matrix inverse against Gauss-Jordan elimination.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidinv import basis_solver, braid_ring
from braidinv.basis_solver import MomentMatrix, build_balanced, invert
from braidinv.braid_ring import (BraidSum, combine, filtration_order, identity,
                                 multiply, tau)
from braidinv.inverse_engine import LiftPoly, strengthen_to
from braidinv.kontsevich import Z
from braidinv.power_series import Series, compose, mul, revert, t_series

import oracles

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
nonzero = rationals.filter(bool)
braid_sums = st.dictionaries(st.integers(-7, 7), rationals, max_size=5)
Q_MINUS_1 = {1: Fraction(1), 0: Fraction(-1)}
node_sets = st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True)


@st.composite
def vanishing_sums(draw):
    """(q - 1)^k times a random sum, exponents in [-12, 12]: order k or more."""
    terms = draw(st.dictionaries(st.integers(-8, 8), rationals, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        terms = oracles.braid_mul(terms, Q_MINUS_1)
    return BraidSum(terms)


@st.composite
def reversible_series(draw):
    order = draw(st.integers(1, 15))
    tail = draw(st.lists(rationals, min_size=order - 1, max_size=order - 1))
    return [Fraction(0), draw(nonzero)] + tail


@given(reversible_series())
def test_revert_is_the_compositional_inverse(coeffs):
    s = Series(coeffs)
    r = revert(s)
    assert compose(r, s) == t_series(s.truncation_order)
    assert list(r.coeffs) == oracles.lagrange_revert(coeffs)


@given(braid_sums, braid_sums, st.integers(0, 8))
def test_z_is_a_ring_homomorphism(a, b, order):
    a, b = BraidSum(a), BraidSum(b)
    assert Z(multiply(a, b), order) == mul(Z(a, order), Z(b, order))
    assert list(Z(a, order).coeffs) == oracles.integral(a.terms, order)


@given(braid_sums, st.dictionaries(st.integers(1, 6), rationals, max_size=4))
def test_apply_matches_the_multiply_loop(seed, coeffs):
    seed = BraidSum(seed)
    P = LiftPoly(coeffs, seed)
    assert P.apply().terms == oracles.braid_poly(P.coeffs, seed.terms)


def test_strengthen_matches_the_stepwise_oracle():
    for order in range(1, 22, 2):
        assert strengthen_to(tau(), order).coeffs == \
            oracles.strengthen_stepwise(oracles.TAU, order)


@given(braid_sums, braid_sums, braid_sums, rationals, rationals)
def test_multiply_is_a_commutative_ring_product(a, b, c, x, y):
    a, b, c = BraidSum(a), BraidSum(b), BraidSum(c)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, b) == multiply(b, a)
    assert multiply(a, combine(b, x, c, y)) == \
        combine(multiply(a, b), x, multiply(a, c), y)
    assert multiply(a, identity()) == a


@given(vanishing_sums())
def test_filtration_order_is_the_root_multiplicity_at_one(b):
    assert filtration_order(b) == oracles.root_multiplicity_at_one(b.terms)


@given(vanishing_sums().filter(bool), vanishing_sums().filter(bool))
def test_filtration_order_adds_under_product(a, b):
    assert filtration_order(multiply(a, b)) == \
        filtration_order(a) + filtration_order(b)


def test_filtration_order_reports_disagreeing_routes(monkeypatch):
    monkeypatch.setattr(braid_ring, "_derivative_order", lambda b: 2)
    with pytest.raises(ArithmeticError, match="order routes disagree"):
        filtration_order(tau())


@given(node_sets, st.booleans())
def test_invert_matches_gauss_jordan(nodes, with_factorials):
    rows = [[Fraction(n ** i, math.factorial(i) if with_factorials else 1)
             for n in nodes] for i in range(len(nodes))]
    M = MomentMatrix(nodes, with_factorials)
    assert M.rows == rows
    assert invert(M).rows == oracles.gauss_inverse(rows)


@given(node_sets, st.data())
def test_moment_matrix_rejects_repeated_nodes(nodes, data):
    repeat = data.draw(st.sampled_from(nodes))
    at = data.draw(st.integers(0, len(nodes)))
    with pytest.raises(ValueError, match="distinct"):
        MomentMatrix(nodes[:at] + [repeat] + nodes[at:])


def test_invert_reports_any_corrupted_entry(monkeypatch):
    lagrange_rows = basis_solver._lagrange_rows
    dim = build_balanced(2).dim
    for k in range(dim):
        for i in range(dim):
            def corrupted(nodes, scale, k=k, i=i):
                rows = lagrange_rows(nodes, scale)
                rows[k][i] += Fraction(1, 10 ** 9)
                return rows
            monkeypatch.setattr(basis_solver, "_lagrange_rows", corrupted)
            with pytest.raises(ArithmeticError,
                               match="inverse failed its own verification"):
                invert(build_balanced(2))
