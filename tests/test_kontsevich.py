import json
import random
from fractions import Fraction

import pytest

from braidinv import cli
from braidinv.braid_ring import BraidSum, sigma_power, tau
from braidinv.kontsevich import Z, focus_order, integral

import oracles
from oracles import (INFINITE, combine, filtration_order, read_z,
                     tau_power)


def residue(b):
    """(order, value): the graded component at the filtration order."""
    j = filtration_order(b)
    return j, read_z(b, j)[j]


def test_z_on_generators():
    assert read_z(sigma_power(1), 7) == oracles.exp_series(Fraction(1, 2), 7)
    assert read_z(sigma_power(-1), 7) == \
        oracles.exp_series(Fraction(-1, 2), 7)


def test_z_on_tau():
    assert read_z(tau(), 7) == [0, 1, 0, Fraction(1, 24), 0,
                                Fraction(1, 1920), 0, Fraction(1, 322560)]


def test_z_on_double_difference():
    b = combine(sigma_power(1), 2, sigma_power(0), -2)
    assert read_z(b, 2) == [0, 1, Fraction(1, 4)]


def test_z_is_linear():
    rng = random.Random(611)
    for _ in range(10):
        a = BraidSum({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(3)})
        b = BraidSum({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(3)})
        assert read_z(combine(a, 1, b, 1), 5) == \
            [x + y for x, y in zip(read_z(a, 5), read_z(b, 5))]


def test_z_is_multiplicative():
    """The integral turns the group product into the series product."""
    rng = random.Random(612)
    for _ in range(10):
        a = BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3) for _ in range(2)})
        b = BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3) for _ in range(2)})
        assert read_z(oracles.multiply(a, b), 6) == \
            oracles.series_mul(read_z(a, 6), read_z(b, 6), 6)


def test_z_i_agrees_with_series_coefficients():
    b = combine(tau_power(3), Fraction(1, 7), sigma_power(1), 2)
    assert read_z(b, 6) == oracles.integral(oracles.terms(b), 6)
    with pytest.raises(ValueError, match="negative order"):
        Z(b, -1)


def test_z_is_the_prefix_of_the_integral_stream():
    b = BraidSum({3: 5, -2: 1, 0: -4}, 9)
    stream = integral(b)
    assert [next(stream) for _ in range(40)] == list(Z(b, 39))
    assert read_z(b, 39) == oracles.integral(oracles.terms(b), 39)
    assert Z(b, 0) == ((2, 9),)


def test_z_i_golden_values():
    # zero is (0, 1), as str of a Fraction prints it
    assert Z(tau(), 3) == ((0, 1), (1, 1), (0, 1), (1, 24))


def test_residue_of_order_one_elements():
    assert residue(tau()) == (1, 1)
    assert residue(combine(sigma_power(1), 2, sigma_power(0), -2)) == (1, 1)


def test_residue_of_tau_cubed():
    # checked against the direct moment sum over the six expanded terms
    b = tau_power(3)
    direct = sum((c * Fraction(n, 2) ** 3
                  for n, c in oracles.terms(b).items()), Fraction(0)) / 6
    assert direct == 1
    assert residue(b) == (3, 1)


def test_residue_rejects_zero():
    # no graded component of the zero sum is nonzero: its order is infinite
    assert filtration_order(BraidSum({})) == INFINITE
    assert focus_order(Z(BraidSum({}), 6)) is None


def test_residue_multiplicative_at_matching_orders():
    """Orders add and leading values multiply when nothing cancels."""
    for i in range(1, 4):
        for j in range(1, 4):
            (oi, vi), (oj, vj) = residue(tau_power(i)), residue(tau_power(j))
            assert residue(tau_power(i + j)) == (oi + oj, vi * vj)


def test_focus_profile_of_corrected_lift():
    b = combine(combine(tau(), 1, tau_power(3), Fraction(-1, 24)), 1,
                tau_power(5), Fraction(3, 640))
    profile = Z(b, 5)
    assert read_z(b, 5) == [0, 1, 0, 0, 0, 0]
    assert focus_order(profile) == 1


def test_focus_profile_trivial_cases():
    assert read_z(sigma_power(0), 3) == [1, 0, 0, 0]
    assert read_z(tau(), 3) == [0, 1, 0, Fraction(1, 24)]
    assert focus_order(Z(sigma_power(0), 3)) == 0
    assert focus_order(Z(tau(), 1)) == 1
    assert focus_order(Z(tau(), 3)) is None
    assert focus_order(Z(BraidSum({}), 4)) is None


def test_focus_profile_orders_are_consecutive(capsys):
    assert cli.main(["zmap", "--braid", "pair:2", "--order", "2",
                     "--jmax", "4", "--format", "json"]) == 0
    graded = json.loads(capsys.readouterr().out)["tables"][1]["rows"]
    assert [row[0] for row in graded] == ["0", "1", "2", "3", "4"]
