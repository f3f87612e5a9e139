import random
from fractions import Fraction

from braidinv.braid_ring import BraidSum, sigma_power, tau
from braidinv.inverse_engine import closed_form_lift, solved_lift
import oracles
from oracles import read_z


def random_seed(rng):
    """A seed of filtration order one: coefficients summing to zero, and a
    nonzero first moment."""
    while True:
        exponents = rng.sample(range(-6, 7), rng.randrange(2, 5))
        coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                  for _ in exponents[1:]]
        terms = dict(zip(exponents, coeffs + [-sum(coeffs)]))
        if sum(n * c for n, c in terms.items()):
            return oracles.braid(terms)


def test_exp_half_matches_displayed_series():
    """Z(q) = exp(t/2), and the oracle's exponential series agrees."""
    displayed = [Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(1, 48),
                 Fraction(1, 384), Fraction(1, 3840), Fraction(1, 46080),
                 Fraction(1, 645120)]
    assert read_z(sigma_power(1), 7) == displayed
    assert oracles.exp_series(Fraction(1, 2), 7) == displayed


def test_exp_minus_half_alternates():
    plus = read_z(sigma_power(1), 7)
    minus = read_z(sigma_power(-1), 7)
    for i in range(8):
        assert minus[i] == (-1) ** i * plus[i]


def test_exp_zero_is_one():
    assert read_z(sigma_power(0), 5) == [1, 0, 0, 0, 0, 0]


def test_exp_product_is_one():
    p = oracles.series_mul(read_z(sigma_power(1), 7),
                           read_z(sigma_power(-1), 7), 7)
    assert p == [Fraction(1)] + [Fraction(0)] * 7
    assert read_z(oracles.multiply(sigma_power(1), sigma_power(-1)), 7) == p


def test_compose_corrects_the_fifth_degree():
    """x - x^3/24 composed with 2sinh(t/2) leaves a -3/640 residue at t^5.

    Z is a ring homomorphism with Z(tau) = 2sinh(t/2), so the integral of
    the lift expanded at tau is that composition.
    """
    lift = oracles.braid(oracles.braid_poly(
        {1: Fraction(1), 3: Fraction(-1, 24)}, oracles.terms(tau())))
    out = read_z(lift, 5)
    assert out[1] == 1
    assert out[3] == 0
    assert out[5] == Fraction(-3, 640)


def test_revert_two_sinh_half():
    """The certified lift on q - q^-1 reverts Z(q - q^-1) = 2 sinh(t/2)."""
    assert oracles.exact(solved_lift(11)) == (
        0, 1, 0, Fraction(-1, 24), 0, Fraction(3, 640), 0,
        Fraction(-5, 7168), 0, Fraction(35, 294912), 0,
        Fraction(-63, 2883584))


def test_lift_series_of_a_one_sided_seed_is_a_log():
    """Z(2q - 2) = 2 exp(t/2) - 2 reverts to 2 log(1 + t/2), whose degree-m
    coefficient is (-1)^(m+1) / (m 2^(m-1)): every degree, not only odd."""
    seed = BraidSum({1: 2, 0: -2})
    assert oracles.exact(oracles._lift_series(seed.nums, seed.den, 12)) == (
        0, *(Fraction((-1) ** (m + 1), m * 2 ** (m - 1))
             for m in range(1, 13)))


def test_revert_matches_lagrange_oracle_random():
    rng = random.Random(521)
    for _ in range(10):
        seed = random_seed(rng)
        order = rng.randrange(1, 9)
        P = oracles._lift_series(seed.nums, seed.den, order)
        assert list(oracles.exact(P)) == oracles.lagrange_revert(
            oracles.integral(oracles.terms(seed), order))


def test_revert_round_trip_random():
    rng = random.Random(522)
    for _ in range(10):
        seed = random_seed(rng)
        order = rng.randrange(1, 9)
        s = oracles.integral(oracles.terms(seed), order)
        r = oracles.exact(oracles._lift_series(seed.nums, seed.den, order))
        assert oracles.series_compose(r, s) == [0, 1] + [0] * (order - 1)
        assert oracles.series_compose(s, r) == [0, 1] + [0] * (order - 1)


def test_closed_form_arcsinh():
    s = oracles.exact(closed_form_lift(7))
    assert list(s) == [0, 1, 0, Fraction(-1, 24), 0, Fraction(3, 640), 0,
                       Fraction(-5, 7168)]
    assert closed_form_lift(1) == ((0, 1), (1, 1))
    assert closed_form_lift(13)[13] == (231, 54525952)
