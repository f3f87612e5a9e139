import random
from fractions import Fraction

import pytest

from braidinv.braid_ring import tau
from braidinv.inverse_engine import LiftPoly
from braidinv.kontsevich import Z
from braidinv.power_series import (Series, add, arcsinh2_closed_form,
                                   exp_scaled, revert, scale, t_series,
                                   two_sinh_half)

import oracles


def frac(n, d=1):
    return Fraction(n, d)


def test_exp_half_matches_displayed_series():
    s = exp_scaled(frac(1, 2), 7)
    assert list(s.coeffs) == [frac(1), frac(1, 2), frac(1, 8), frac(1, 48),
                              frac(1, 384), frac(1, 3840), frac(1, 46080),
                              frac(1, 645120)]


def test_exp_minus_half_alternates():
    plus = exp_scaled(frac(1, 2), 7)
    minus = exp_scaled(frac(-1, 2), 7)
    for i in range(8):
        assert minus.coeffs[i] == (-1) ** i * plus.coeffs[i]


def test_exp_zero_is_one():
    assert exp_scaled(0, 5) == Series([1, 0, 0, 0, 0, 0])


def test_exp_product_is_one():
    p = oracles.series_mul(exp_scaled(frac(1, 2), 7).coeffs,
                           exp_scaled(frac(-1, 2), 7).coeffs, 7)
    assert p == [frac(1)] + [frac(0)] * 7


def test_add_and_scale_basics():
    s = exp_scaled(frac(1, 3), 6)
    assert add(s, scale(s, -1)) == Series([0] * 7)
    assert list(scale(t_series(4), -2).coeffs) == [0, -2, 0, 0, 0]


def test_mixed_order_truncates_to_smaller():
    a = exp_scaled(1, 8)
    b = exp_scaled(1, 3)
    assert add(a, b).truncation_order == 3


def test_compose_corrects_the_fifth_degree():
    """x - x^3/24 composed with 2sinh(t/2) leaves a -3/640 residue at t^5.

    Z is a ring homomorphism with Z(tau) = 2sinh(t/2), so the integral of
    the lift expanded at tau is that composition.
    """
    out = Z(LiftPoly({1: 1, 3: frac(-1, 24)}, tau()).apply(), 5)
    assert out.coeffs[1] == 1
    assert out.coeffs[3] == 0
    assert out.coeffs[5] == frac(-3, 640)


def test_revert_two_sinh_half():
    r = revert(two_sinh_half(11))
    assert list(r.coeffs) == [0, 1, 0, frac(-1, 24), 0, frac(3, 640), 0,
                              frac(-5, 7168), 0, frac(35, 294912), 0,
                              frac(-63, 2883584)]


def test_revert_identity():
    assert revert(t_series(5)) == t_series(5)


def test_revert_preconditions():
    with pytest.raises(ValueError):
        revert(Series([1, 1, 1]))
    with pytest.raises(ValueError):
        revert(Series([0, 0, 1]))


def test_revert_matches_lagrange_oracle_random():
    rng = random.Random(521)
    for _ in range(10):
        order = rng.randrange(3, 8)
        coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2]))]
        coeffs += [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                   for _ in range(order - 1)]
        ours = revert(Series(coeffs))
        assert list(ours.coeffs) == oracles.lagrange_revert(coeffs)


def test_revert_round_trip_random():
    rng = random.Random(522)
    for _ in range(10):
        order = rng.randrange(3, 8)
        coeffs = [Fraction(0), Fraction(1)]
        coeffs += [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                   for _ in range(order - 1)]
        r = list(revert(Series(coeffs)).coeffs)
        assert oracles.series_compose(r, coeffs) == list(t_series(order).coeffs)
        assert oracles.series_compose(coeffs, r) == list(t_series(order).coeffs)


def test_closed_form_arcsinh():
    s = arcsinh2_closed_form(7)
    assert list(s.coeffs) == [0, 1, 0, frac(-1, 24), 0, frac(3, 640), 0,
                              frac(-5, 7168)]
    assert arcsinh2_closed_form(1) == t_series(1)
    assert arcsinh2_closed_form(13).coeffs[13] == frac(231, 54525952)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        t_series(0)
