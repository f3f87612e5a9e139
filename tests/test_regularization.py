"""The Abel values and the Leibniz partial sums, reduced integer pairs,
read as Fractions (oracles.read_pairs, which also fails on an unreduced
pair) where an oracle compares them."""

import math
from fractions import Fraction

import mpmath
import pytest

from braidinv import cli
from braidinv.regularization import leibniz_partial, theta_value

import oracles
from oracles import read_pairs


def test_generating_rep_and_value():
    # x / (1 + x^2), the Abel transform of the alternating odd signs, at 1
    assert theta_value(0) == (1, 2)


def test_theta_first_application():
    # theta(x/(1+x^2)) = (x - x^3)/(1+x^2)^2, which vanishes at x = 1, and
    # theta of that is (x - 6x^3 + x^5)/(1+x^2)^3, which is -4/8 there
    assert theta_value(1) == (0, 1)
    assert read_pairs(theta_value(2)) == Fraction(-4, 8)


def test_theta_value_small_cases():
    assert theta_value(0) == (1, 2)
    assert theta_value(1) == (0, 1)
    assert theta_value(2) == (-1, 2)
    with pytest.raises(ValueError):
        theta_value(-1)


def test_theta_value_vanishes_at_odd_orders():
    for k in (1, 3, 5, 7, 9, 11, 13):
        assert theta_value(k) == (0, 1)


def test_theta_value_euler_numbers():
    euler = oracles.euler_numbers_sech(60)
    for k in range(0, 61, 2):
        assert read_pairs(theta_value(k)) == Fraction(euler[k], 2)


def test_theta_value_matches_numeric_abel_limit():
    """The exact operator values are the Abel limits, to well under 1e-6."""
    numeric = oracles.abel_theta_numeric(6)
    for k in range(7):
        err = abs(float(numeric[k] - read_pairs(theta_value(k))))
        assert err < 1e-6


def test_beta_relation(capsys):
    for s in (3, 5, 7, 9):
        assert cli.main(["beta", "--s", str(s), "--format", "csv"]) == 0
        assert "reduced relation left side,0\n" in capsys.readouterr().out
    for s in (4, 2, -1):
        assert cli.main(["beta", "--s", str(s)]) == 1
        assert capsys.readouterr().err == \
            "error: --s must be 1 or an odd integer >= 3\n"


def test_leibniz_partial_small():
    assert leibniz_partial(1) == (1, 1)
    assert leibniz_partial(2) == (2, 3)
    with pytest.raises(ValueError):
        leibniz_partial(0)


def test_leibniz_partial_matches_direct_sum():
    # every r up to 300 crosses each leaf of 16 pairs, each merge of the
    # splitting up to depth 4 and the odd last term; r = 2049 is 1024
    # pairs, a power of two, and an odd last term
    for r in [*range(1, 301), 1000, 2049, 3000]:
        assert read_pairs(leibniz_partial(r)) == oracles.leibniz_direct(r), r


def test_leibniz_partial_has_odd_reduced_denominators():
    # so beta --s 1 scales the sum by 4 without reducing it again
    for r in (1, 10, 100, 1000, 10000):
        num, den = leibniz_partial(r)
        assert den % 2 == 1 and math.gcd(num, den) == 1, r


def test_leibniz_thousand_terms_near_pi_over_four():
    with mpmath.workdps(30):
        num, den = leibniz_partial(1000)
        approx = mpmath.mpf(num) / den
        assert abs(approx - mpmath.pi / 4) < mpmath.mpf("5e-4")
