import random
from fractions import Fraction

import pytest

from braidinv.braid_ring import (BraidSum, combine, identity, multiply, pair,
                                 sigma, sigma_bar, tau, tau_power)
from braidinv.kontsevich import (GradedValue, Z, focus_order, focus_profile,
                                 residue)
from braidinv.power_series import add, exp_scaled, mul

import oracles


def frac(n, d=1):
    return Fraction(n, d)


def test_z_on_generators():
    assert Z(sigma(), 7) == exp_scaled(frac(1, 2), 7)
    assert Z(sigma_bar(), 7) == exp_scaled(frac(-1, 2), 7)


def test_z_on_tau():
    s = Z(tau(), 7)
    assert list(s.coeffs) == [0, 1, 0, frac(1, 24), 0, frac(1, 1920), 0,
                              frac(1, 322560)]


def test_z_on_double_difference():
    b = combine(sigma(), 2, identity(), -2)
    s = Z(b, 2)
    assert list(s.coeffs) == [0, 1, frac(1, 4)]


def test_z_is_linear():
    rng = random.Random(611)
    for _ in range(10):
        a = BraidSum({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(3)})
        b = BraidSum({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(3)})
        assert Z(combine(a, 1, b, 1), 5) == add(Z(a, 5), Z(b, 5))


def test_z_is_multiplicative():
    """The integral turns the group product into the series product."""
    rng = random.Random(612)
    for _ in range(10):
        a = BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3) for _ in range(2)})
        b = BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3) for _ in range(2)})
        assert Z(multiply(a, b), 6) == mul(Z(a, 6), Z(b, 6))


def test_z_i_agrees_with_series_coefficients():
    b = combine(tau_power(3), frac(1, 7), sigma(), 2)
    assert list(Z(b, 6).coeffs) == oracles.integral(b.terms, 6)
    with pytest.raises(ValueError, match="negative order"):
        Z(b, -1)


def test_z_i_golden_values():
    assert Z(tau(), 3).coeffs == (0, 1, 0, frac(1, 24))


def test_residue_of_order_one_elements():
    assert residue(tau()) == GradedValue(1, frac(1))
    assert residue(combine(sigma(), 2, identity(), -2)) == GradedValue(1, frac(1))


def test_residue_of_tau_cubed():
    # checked against the direct moment sum over the six expanded terms
    b = tau_power(3)
    direct = sum((c * frac(n, 2) ** 3 for n, c in b.terms.items()), frac(0)) / 6
    assert direct == 1
    assert residue(b) == GradedValue(3, frac(1))


def test_residue_rejects_zero():
    with pytest.raises(ValueError):
        residue(BraidSum())


def test_residue_multiplicative_at_matching_orders():
    """Orders add and leading values multiply when nothing cancels."""
    for i in range(1, 4):
        for j in range(1, 4):
            ri = residue(tau_power(i))
            rj = residue(tau_power(j))
            rij = residue(tau_power(i + j))
            assert rij.order == ri.order + rj.order
            assert rij.value == ri.value * rj.value


def test_focus_profile_of_corrected_lift():
    b = combine(combine(tau(), 1, tau_power(3), frac(-1, 24)), 1,
                tau_power(5), frac(3, 640))
    profile = focus_profile(b, 5)
    values = [g.value for g in profile]
    assert values == [0, 1, 0, 0, 0, 0]
    assert focus_order(profile) == 1


def test_focus_profile_trivial_cases():
    assert [g.value for g in focus_profile(identity(), 3)] == [1, 0, 0, 0]
    assert [g.value for g in focus_profile(tau(), 3)] == [0, 1, 0, frac(1, 24)]
    assert focus_order(focus_profile(tau(), 3)) is None
    assert focus_order(focus_profile(BraidSum(), 4)) is None


def test_focus_profile_orders_are_consecutive():
    profile = focus_profile(pair(2), 4)
    assert [g.order for g in profile] == [0, 1, 2, 3, 4]
