"""Property tests for the integer kernels against Fraction-only oracles.

revert, Z and LiftPoly.apply work on integer numerators over one common
denominator; each property compares them with a route that never does.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from braidinv.braid_ring import BraidSum, multiply, tau
from braidinv.inverse_engine import LiftPoly, strengthen_to
from braidinv.kontsevich import Z
from braidinv.power_series import Series, compose, mul, revert, t_series

import oracles

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
nonzero = rationals.filter(bool)
braid_sums = st.dictionaries(st.integers(-7, 7), rationals, max_size=5)


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
