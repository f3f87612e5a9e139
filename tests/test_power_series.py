import random
from fractions import Fraction

import pytest

from braidinv.power_series import (Series, add, arcsinh2_closed_form, compose,
                                   exp_scaled, mul, render_series, revert,
                                   scale, series_json, t_series,
                                   two_sinh_half, zero_series)

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
    p = mul(exp_scaled(frac(1, 2), 7), exp_scaled(frac(-1, 2), 7))
    assert list(p.coeffs) == [frac(1)] + [frac(0)] * 7


def test_add_scale_mul_basics():
    s = exp_scaled(frac(1, 3), 6)
    assert add(s, scale(s, -1)) == zero_series(6)
    t = t_series(4)
    assert list(mul(t, t).coeffs) == [0, 0, 1, 0, 0]


def test_mixed_order_truncates_to_smaller():
    a = exp_scaled(1, 8)
    b = exp_scaled(1, 3)
    assert mul(a, b).truncation_order == 3
    assert add(a, b).truncation_order == 3


def test_mul_matches_oracle_random():
    rng = random.Random(520)
    for _ in range(15):
        order = rng.randrange(2, 7)
        a = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
             for _ in range(order + 1)]
        b = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
             for _ in range(order + 1)]
        ours = mul(Series(a), Series(b))
        assert list(ours.coeffs) == oracles.series_mul(a, b, order)


def test_compose_corrects_the_fifth_degree():
    """x - x^3/24 composed with 2sinh(t/2) leaves a -3/640 residue at t^5."""
    outer = Series([0, 1, 0, frac(-1, 24), 0, 0])
    inner = two_sinh_half(5)
    out = compose(outer, inner)
    assert out.coeffs[1] == 1
    assert out.coeffs[3] == 0
    assert out.coeffs[5] == frac(-3, 640)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        compose(t_series(3), Series([1, 1, 0, 0]))


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
        s = Series(coeffs)
        assert compose(revert(s), s) == t_series(order)
        assert compose(s, revert(s)) == t_series(order)


def test_closed_form_arcsinh():
    s = arcsinh2_closed_form(7)
    assert list(s.coeffs) == [0, 1, 0, frac(-1, 24), 0, frac(3, 640), 0,
                              frac(-5, 7168)]
    assert arcsinh2_closed_form(1) == t_series(1)
    assert arcsinh2_closed_form(13).coeffs[13] == frac(231, 54525952)


def test_render_and_json():
    s = Series([frac(1, 2), 0, frac(-3, 4)])
    assert render_series(s) == "1/2 + 0*t + -3/4*t^2"
    assert series_json(s) == ["1/2", "0", "-3/4"]


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        t_series(0)
