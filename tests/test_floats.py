"""Float cells against mpmath 1.3, whose rendering tests/oracles.py keeps.

braidinv.floats computes in integers what mpmath's mpf arithmetic and nstr
printed, so each cell pipeline of the float commands must give the same
bytes as the oracle: x (basis --solve-t), x/pi and |x/pi - 1| (beta --s 1),
4/(pi j^2) and |a - t| (asymptotics).  The beta and asymptotics pipelines
run through the commands themselves, with their exact inputs replaced.
"""

from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from braidinv import cli, floats
from braidinv.commands import asymptotics, beta

import oracles

# signed rationals up to 10^400 over denominators up to 10^400, and zero
magnitudes = st.integers(0, 400).map(lambda k: 10 ** k)
rationals = st.builds(
    Fraction,
    magnitudes.flatmap(lambda m: st.integers(-m, m)),
    magnitudes.flatmap(lambda m: st.integers(1, m)))
digit_counts = st.integers(10, 600)
TERMS = (1, 10, 100, 1000, 10000)


def beta_cells(x, digits):
    """The float cells of beta --s 1 when 4 * the partial sum at r is x / r."""
    with mock.patch.object(beta, "leibniz_partial", lambda r: x / 4 / r):
        _, [(_, _, rows, _)] = beta.run(SimpleNamespace(s=1, digits=digits))
    return [row[2:] for row in rows]


def asymptotic_cells(j, coefficients, digits):
    """The float cells of asymptotics for these pair coefficients."""
    orders = list(range(1, len(coefficients) + 1))
    with mock.patch.object(asymptotics, "asymptotic_check",
                           lambda j, orders: list(zip(orders, coefficients))):
        _, [(_, _, rows, _)] = asymptotics.run(SimpleNamespace(
            j=j, orders=",".join(map(str, orders)), digits=digits))
    return [row[2:] for row in rows]


@given(rationals, digit_counts)
@example(Fraction(0), 10)
# mpf(n) / den rounds twice: one rounding of n/den would print ...732e+19
@example(Fraction(291828021975424642546, 3), 10)
def test_fraction_cell_matches_mpmath(x, digits):
    assert floats.cell(x, digits) == oracles.mpmath_fraction_cell(x, digits)


@given(rationals, digit_counts)
@example(Fraction(0), 10)
@example(Fraction(22, 7), 50)
def test_beta_cells_match_mpmath(x, digits):
    assert beta_cells(x, digits) == [
        oracles.mpmath_leibniz_cells(x / r, digits) for r in TERMS]


@given(st.integers(1, 99), st.lists(rationals, min_size=1, max_size=3),
       digit_counts)
@example(3, [Fraction(-4, 10)], 50)
def test_asymptotic_cells_match_mpmath(j, coefficients, digits):
    assert asymptotic_cells(j, coefficients, digits) == [
        oracles.mpmath_asymptotic_cells(j, c, digits) for c in coefficients]


@pytest.mark.parametrize("digits", [10, 50, 333])
def test_binary_ties_round_to_even(digits):
    p = floats.precision(digits)
    half = Fraction(1, 2)
    for base in (1, 2, 3, 2 ** (p - 1) - 1):
        # exactly halfway between two p-bit floats: up only from an odd
        # one; the last base rounds up into the next power of two
        low = 2 ** p + 2 * base
        assert floats.rounded(low + 1, p) == low + 2 * (base & 1)
        assert floats.rounded(-low - 1, p) == -low - 2 * (base & 1)
        for scale in (Fraction(1, 2 ** 900), half, Fraction(2 ** 900)):
            for x in (low + 1, -low - 1, low + 1 + half, Fraction(low + 1, 3)):
                x *= scale
                assert floats.cell(x, digits) == \
                    oracles.mpmath_fraction_cell(x, digits)


@pytest.mark.parametrize("digits", [10, 17, 60])
def test_layout_and_carries_across_the_notation_switch(digits):
    # fixed notation for decimal exponents strictly between
    # min(-digits//3, -5) and digits; 1 - 10^-(digits+1) carries into 1.0
    # and moves the exponent up by one, across the switch at its edges
    shifts = (Fraction(1), 1 - Fraction(1, 10 ** (digits + 1)),
              1 - Fraction(1, 10 ** (digits - 2)), Fraction(123456789, 10 ** 8))
    for exponent in range(-30, 61):
        for shift in shifts:
            for x in (shift * Fraction(10) ** exponent,
                      -shift * Fraction(10) ** exponent):
                assert floats.cell(x, digits) == \
                    oracles.mpmath_fraction_cell(x, digits)


def test_pi_matches_mpmath_at_every_precision():
    for digits in range(10, 401):
        assert floats.pi(floats.precision(digits)) == oracles.mpmath_pi(digits)


def test_machin_encloses_pi():
    # against mpmath's pi at w + 64 bits, whose error is far below one unit
    for w in [*range(1, 200), 500, 1000, 3000]:
        lo, hi = floats._machin(w)
        with mpmath.workprec(w + 64):
            floor = int(mpmath.floor(mpmath.pi * 2 ** w))
        # pi 2^w is no integer: lo < pi 2^w < hi is lo <= floor < hi
        assert lo <= floor < hi and hi - lo <= 80, w


def test_edge_of_the_printable_range():
    # mpmath converts past 2^±3500 by another route; floats refuses
    for x in (Fraction(2 ** 3499), Fraction(1, 2 ** 3501)):
        assert floats.nstr(x, 20) == oracles.mpmath_fraction_cell(x, 20)
    for x in (Fraction(2 ** 3500), Fraction(1, 2 ** 3502)):
        with pytest.raises(ValueError, match="beyond the printable range"):
            floats.nstr(x, 20)


def test_cells_longer_than_the_int_to_str_guard():
    # the guard refuses str() of an int past 4300 digits by default
    x = Fraction(1, 3)
    assert floats.cell(x, 6000) == oracles.mpmath_fraction_cell(x, 6000)


def test_a_cell_near_2_to_the_4000_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(beta, "leibniz_partial", lambda r: Fraction(2 ** 4000))
    assert cli.main(["beta", "--s", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a float cell of about 2^")
    assert err.count("\n") == 1
