import random
from fractions import Fraction

import pytest

from braidinv.braid_ring import (BraidSum, pair, render,
                                 sigma_power, tau)

import oracles
from oracles import (INFINITE, braid, combine, filtration_order, tau_power,
                     terms)


def test_zero_coefficients_are_dropped():
    assert oracles.same(BraidSum({1: 0, 2: 0}), BraidSum({}), BraidSum({}, 7))
    assert BraidSum({}).nums == {} and BraidSum({}, 5).den == 1
    assert (BraidSum({3: 2}, 4).nums, BraidSum({3: 2}, 4).den) == ({3: 1}, 2)


def test_terms_are_canonical():
    b = BraidSum({2: 4, -2: -4}, 12)
    assert (b.nums, b.den) == ({2: 1, -2: -1}, 3)
    assert terms(b) == {2: Fraction(1, 3), -2: Fraction(-1, 3)}
    assert oracles.same(b, braid({2: "1/3", -2: Fraction(-1, 3)}))


def test_generators():
    assert terms(sigma_power(1)) == {1: Fraction(1)}
    assert terms(sigma_power(-1)) == {-1: Fraction(1)}
    assert terms(sigma_power(0)) == {0: Fraction(1)}
    assert oracles.same(tau(), combine(sigma_power(1), 1, sigma_power(-1), -1))
    assert oracles.same(pair(1), tau())
    with pytest.raises(ValueError):
        pair(0)


def test_multiply_matches_group_law():
    assert oracles.same(oracles.multiply(sigma_power(1), sigma_power(-1)),
                        sigma_power(0))
    assert oracles.same(oracles.multiply(sigma_power(3), sigma_power(-5)),
                        sigma_power(-2))


def test_multiply_homomorphism_random():
    rng = random.Random(411)
    for _ in range(30):
        a = rng.randrange(-8, 9)
        b = rng.randrange(-8, 9)
        assert oracles.same(oracles.multiply(sigma_power(a), sigma_power(b)),
                            sigma_power(a + b))


def test_combine_is_bilinear_random():
    rng = random.Random(412)
    for _ in range(20):
        a = braid({rng.randrange(-5, 6):
                   Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                   for _ in range(3)})
        b = braid({rng.randrange(-5, 6):
                   Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                   for _ in range(3)})
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        left = combine(a, c, b, c)
        right = combine(combine(a, 1, b, 1), c, BraidSum({}), 0)
        assert oracles.same(left, right)


def test_tau_power_small_cases():
    assert oracles.same(oracles.multiply(sigma_power(0), tau()), tau())
    assert terms(oracles.multiply(tau(), tau())) == \
        {2: Fraction(1), 0: Fraction(-2), -2: Fraction(1)}


def test_tau_power_multiplicative():
    for i in range(5):
        for j in range(5):
            assert oracles.same(oracles.multiply(tau_power(i), tau_power(j)),
                                tau_power(i + j))


def test_tau_cubed_expands_into_pairs():
    # direct expansion: (q - q^-1)^3 = <3> - 3<1>
    expected = combine(pair(3), 1, pair(1), -3)
    assert oracles.same(
        oracles.multiply(oracles.multiply(tau(), tau()), tau()), expected)


def test_tau_power_pair_expansion_matches_oracle():
    for k in (1, 3, 5, 7, 9):
        expanded = oracles.pair_expand_binomial({k: Fraction(1)})
        rebuilt = BraidSum({})
        for n, c in expanded.items():
            rebuilt = combine(rebuilt, 1, pair(n), c)
        assert oracles.same(tau_power(k), rebuilt)


def test_filtration_order_basics():
    assert filtration_order(tau()) == 1
    two_sigma_minus_e = combine(sigma_power(1), 2, sigma_power(0), -2)
    assert filtration_order(two_sigma_minus_e) == 1
    assert filtration_order(tau_power(3)) == 3
    assert filtration_order(BraidSum({})) == INFINITE
    assert filtration_order(sigma_power(0)) == 0


def test_filtration_order_of_pairs():
    """Each antisymmetric pair has order exactly 1 (zero sum, nonzero mean)."""
    for n in (1, 2, 3, 7, 10 ** 18):
        assert filtration_order(pair(n)) == 1


def test_filtration_order_random_sums_stay_consistent():
    # filtration_order computes two independent routes and raises if they
    # ever disagree, so surviving a spread of random inputs is the check
    rng = random.Random(413)
    for _ in range(40):
        values = {rng.randrange(-6, 7):
                  Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                  for _ in range(rng.randrange(1, 6))}
        order = filtration_order(braid(values))
        assert order == INFINITE or 0 <= order <= len(values)


def test_filtration_order_additive_under_product():
    cases = [tau(), tau_power(2), pair(2), combine(pair(3), 1, pair(1), -3)]
    for a in cases:
        for b in cases:
            oa, ob = filtration_order(a), filtration_order(b)
            assert filtration_order(oracles.multiply(a, b)) >= oa + ob


def test_render_format():
    assert render(tau()) == "1*q^1 + -1*q^-1"
    assert render(BraidSum({})) == "0"
    assert render(BraidSum({2: 1, 0: -3}, 3)) == "1/3*q^2 + -1*q^0"
    assert render(BraidSum({4: 2, -1: 3}, 6)) == "1/3*q^4 + 1/2*q^-1"
