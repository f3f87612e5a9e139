import random
from fractions import Fraction

from braidinv.braid_ring import BraidSum, multiply, sigma_power, tau
from braidinv.inverse_engine import _lift_series, closed_form_lift
from braidinv.kontsevich import Z

import oracles


def frac(n, d=1):
    return Fraction(n, d)


def random_seed(rng):
    """A seed of filtration order one: coefficients summing to zero, and a
    nonzero first moment."""
    while True:
        exponents = rng.sample(range(-6, 7), rng.randrange(2, 5))
        coeffs = [frac(rng.randrange(-4, 5), rng.randrange(1, 4))
                  for _ in exponents[1:]]
        terms = dict(zip(exponents, coeffs + [-sum(coeffs)]))
        if sum(n * c for n, c in terms.items()):
            return BraidSum(terms)


def test_exp_half_matches_displayed_series():
    """Z(q) = exp(t/2), and the oracle's exponential series agrees."""
    displayed = [frac(1), frac(1, 2), frac(1, 8), frac(1, 48), frac(1, 384),
                 frac(1, 3840), frac(1, 46080), frac(1, 645120)]
    assert list(Z(sigma_power(1), 7)) == displayed
    assert oracles.exp_series(frac(1, 2), 7) == displayed


def test_exp_minus_half_alternates():
    plus = Z(sigma_power(1), 7)
    minus = Z(sigma_power(-1), 7)
    for i in range(8):
        assert minus[i] == (-1) ** i * plus[i]


def test_exp_zero_is_one():
    assert Z(sigma_power(0), 5) == (1, 0, 0, 0, 0, 0)


def test_exp_product_is_one():
    p = oracles.series_mul(Z(sigma_power(1), 7), Z(sigma_power(-1), 7), 7)
    assert p == [frac(1)] + [frac(0)] * 7
    assert list(Z(multiply(sigma_power(1), sigma_power(-1)), 7)) == p


def test_compose_corrects_the_fifth_degree():
    """x - x^3/24 composed with 2sinh(t/2) leaves a -3/640 residue at t^5.

    Z is a ring homomorphism with Z(tau) = 2sinh(t/2), so the integral of
    the lift expanded at tau is that composition.
    """
    lift = BraidSum(oracles.braid_poly({1: frac(1), 3: frac(-1, 24)},
                                       tau().terms))
    out = Z(lift, 5)
    assert out[1] == 1
    assert out[3] == 0
    assert out[5] == frac(-3, 640)


def test_revert_two_sinh_half():
    """The solve on q - q^-1 reverts Z(q - q^-1) = 2 sinh(t/2)."""
    assert _lift_series(tau(), 11) == (
        0, 1, 0, frac(-1, 24), 0, frac(3, 640), 0, frac(-5, 7168), 0,
        frac(35, 294912), 0, frac(-63, 2883584))


def test_lift_series_of_a_one_sided_seed_is_a_log():
    """Z(2q - 2) = 2 exp(t/2) - 2 reverts to 2 log(1 + t/2), whose degree-m
    coefficient is (-1)^(m+1) / (m 2^(m-1)): every degree, not only odd."""
    assert _lift_series(BraidSum({1: 2, 0: -2}), 12) == (0, *(
        frac((-1) ** (m + 1), m * 2 ** (m - 1)) for m in range(1, 13)))


def test_revert_matches_lagrange_oracle_random():
    rng = random.Random(521)
    for _ in range(10):
        seed = random_seed(rng)
        order = rng.randrange(1, 9)
        assert list(_lift_series(seed, order)) == \
            oracles.lagrange_revert(oracles.integral(seed.terms, order))


def test_revert_round_trip_random():
    rng = random.Random(522)
    for _ in range(10):
        seed = random_seed(rng)
        order = rng.randrange(1, 9)
        s = oracles.integral(seed.terms, order)
        r = _lift_series(seed, order)
        assert oracles.series_compose(r, s) == [0, 1] + [0] * (order - 1)
        assert oracles.series_compose(s, r) == [0, 1] + [0] * (order - 1)


def test_closed_form_arcsinh():
    s = closed_form_lift(7)
    assert list(s) == [0, 1, 0, frac(-1, 24), 0, frac(3, 640), 0,
                       frac(-5, 7168)]
    assert closed_form_lift(1) == (0, 1)
    assert closed_form_lift(13)[13] == frac(231, 54525952)
