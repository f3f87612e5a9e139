import random
from fractions import Fraction

import mpmath
import pytest

from braidinv import cli, inverse_engine
from braidinv.braid_ring import (BraidSum, combine, multiply, pair,
                                 sigma_power, tau)
from braidinv.inverse_engine import (asymptotic_check, closed_form_lift,
                                     expand, strengthen_to, tau_lift)
from braidinv.kontsevich import Z

import oracles


def frac(n, d=1):
    return Fraction(n, d)

LIFT_13 = (0, frac(1), 0, frac(-1, 24), 0, frac(3, 640), 0, frac(-5, 7168), 0,
           frac(35, 294912), 0, frac(-63, 2883584), 0, frac(231, 54525952))


def test_lift_truncate_and_expand():
    P = (0, frac(1), 0, frac(-1, 24))
    expected = combine(tau(), 1, BraidSum(oracles.tau_power(3)), frac(-1, 24))
    assert expand(P, tau(), [1, 3]) == [tau(), expected]
    assert expand(P, tau(), [3, 0, 2]) == [expected, BraidSum(), tau()]


def test_strengthen_single_steps():
    P1 = {1: frac(1)}
    P3 = oracles.strengthen_step(oracles.strengthen_step(P1, 2), 3)
    assert P3 == {1: frac(1), 3: frac(-1, 24)}
    P5 = oracles.strengthen_step(oracles.strengthen_step(P3, 4), 5)
    assert P5 == {1: frac(1), 3: frac(-1, 24), 5: frac(3, 640)}


def test_strengthen_step_rejects_misuse():
    with pytest.raises(ValueError):
        oracles.strengthen_step({1: frac(1)}, 1)
    # degree 4 step before the degree 3 correction: precondition broken
    with pytest.raises(ValueError):
        oracles.strengthen_step({1: frac(1)}, 4)


def test_strengthen_to_golden_13():
    assert strengthen_to(tau(), [13])[0] == LIFT_13


def test_strengthen_to_rejects_bad_inputs():
    for orders, message in (([6], "order 6 is not odd"),
                            ([9, 10, 49], "order 10 is not odd"),
                            ([-1], "order -1 is not odd"),
                            ([9, 3, 9], "order 9 given twice")):
        with pytest.raises(ValueError, match=message):
            strengthen_to(tau(), orders)
    with pytest.raises(ValueError):
        strengthen_to(sigma_power(0), [3])


def test_strengthened_lift_is_flat():
    """The whole point: the integral of the lift is t through the order."""
    orders = (1, 3, 7, 11)
    for order, b in zip(orders, strengthen_to(tau(), orders)[1]):
        assert list(Z(b, order)) == [0, 1] + [0] * (order - 1)


def test_three_routes_agree():
    for order in (1, 3, 5, 9, 13):
        a, _ = strengthen_to(tau(), [order])
        b = oracles.lagrange_revert(oracles.integral(oracles.TAU, order))
        c = closed_form_lift(order)
        assert a == tuple(b) == c


def test_strengthen_general_seed():
    """A different order-one seed gets its own corrections, every degree."""
    seed = combine(sigma_power(1), 2, sigma_power(0), -2)
    P, [b] = strengthen_to(seed, [3])
    assert P[1] == 1
    assert P[2] == frac(-1, 4)
    assert P[3] == frac(1, 12)
    assert list(Z(b, 3)) == [0, 1, 0, 0]
    # seeds whose integral has a linear coefficient other than 1
    for seed in (seed, BraidSum({1: 2, -1: -2}),
                 BraidSum({1: frac(1, 3), -1: frac(-1, 3)})):
        for order in (1, 3, 5, 7, 9):
            P, [b] = strengthen_to(seed, [order])
            assert list(Z(b, order)) == [0, 1] + [0] * (order - 1)
            assert P == oracles.strengthen_stepwise(seed.terms, order)


def test_strengthen_solves_once_and_checks_once(monkeypatch):
    calls = []
    for name in ("_lift_series", "expand", "Z"):
        original = getattr(inverse_engine, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(inverse_engine, name, counting)
    strengthen_to(tau(), range(1, 22, 2))
    assert calls == ["_lift_series", "expand", "Z"]


def test_strengthen_reports_a_broken_invariant(monkeypatch):
    solve = inverse_engine._lift_series
    monkeypatch.setattr(inverse_engine, "_lift_series",
                        lambda seed, order: solve(seed, order)[:-1] + (1,))
    with pytest.raises(ArithmeticError, match="not flat through order 5"):
        strengthen_to(tau(), [5])


def test_tau_lift_golden_rows():
    row1, row2, row7 = tau_lift([1, 3, 7])[1]
    assert oracles.pair_half(row1.terms) == {1: frac(1)}
    assert oracles.pair_half(row2.terms) == {1: frac(9, 8), 3: frac(-1, 24)}
    assert oracles.pair_half(row7.terms) == {
        1: frac(1225, 1024), 3: frac(-245, 3072), 5: frac(49, 5120),
        7: frac(-5, 7168)}


def test_tau_lift_matches_binomial_oracle():
    P, [b] = tau_lift([11])
    assert oracles.pair_half(b.terms) == \
        oracles.pair_expand_binomial({k: c for k, c in enumerate(P) if c})


def test_pair_expansion_rebuild_round_trip():
    _, [b] = strengthen_to(tau(), [9])
    rebuilt = BraidSum()
    for n, c in oracles.pair_half(tau_lift([9])[1][0].terms).items():
        rebuilt = combine(rebuilt, 1, pair(n), c)
    assert rebuilt == b


def test_power_pair_expand_odd_and_even():
    P, [cube] = tau_lift([5], 3)
    applied = BraidSum(oracles.braid_poly(dict(enumerate(P)), oracles.TAU))
    assert oracles.pair_half(cube.terms)
    cubed = multiply(multiply(applied, applied), applied)
    assert cube == cubed

    [square] = tau_lift([5], 2)[1]
    squared = multiply(applied, applied)
    assert square == squared
    assert all(square.terms.get(-n) == c for n, c in square.terms.items())
    rebuilt = BraidSum({0: square.terms.get(0, 0)})
    for n, c in square.terms.items():
        if n > 0:
            rebuilt = combine(rebuilt, 1, BraidSum({n: c, -n: c}), 1)
    assert rebuilt == squared


def test_tau_lift_power_one_is_the_strengthened_lift():
    assert tau_lift([7], 1) == tau_lift([7]) == strengthen_to(tau(), [7])
    with pytest.raises(ValueError, match="power must be positive"):
        tau_lift([7], 0)


def test_pair_limit_target_signs(capsys, monkeypatch):
    monkeypatch.delenv("BRAIDINV_FLOAT_DIGITS", raising=False)
    signs = []
    for j in (1, 3, 5, 7):
        assert cli.main(["asymptotics", "--j", str(j), "--orders", str(j),
                         "--format", "csv"]) == 0
        target = capsys.readouterr().out.splitlines()[2].split(",")[3]
        signs.append(mpmath.mpf(target) > 0)
    assert signs == [True, False, True, False]


def test_asymptotic_golden_rows():
    rows = asymptotic_check(1, [7, 9])
    assert rows == [(7, frac(1225, 1024)), (9, frac(19845, 16384))]
    errors = [abs(mpmath.mpf(c.numerator) / c.denominator - 4 / mpmath.pi)
              for _, c in rows]
    assert errors[1] < errors[0]


def test_asymptotic_check_rejects_bad_inputs():
    with pytest.raises(ValueError):
        asymptotic_check(2, [5])
    with pytest.raises(ValueError):
        asymptotic_check(5, [3])
    with pytest.raises(ValueError, match="at least one order"):
        asymptotic_check(1, [])


def test_truncations_of_one_run_match_shorter_runs():
    # strengthening never rewrites lower coefficients, so one long run
    # carries every shorter answer inside it
    full, expansions = strengthen_to(tau(), [1, 3, 5, 7, 9, 11, 13])
    rng = random.Random(733)
    for _ in range(4):
        at = rng.randrange(6)
        order = 2 * at + 1
        assert (full[:order + 1], [expansions[at]]) == \
            strengthen_to(tau(), [order])
