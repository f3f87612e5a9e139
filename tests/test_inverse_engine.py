import random
from fractions import Fraction

import pytest

from braidinv.braid_ring import (BraidSum, combine, identity, multiply, pair,
                                 sigma, tau)
from braidinv import inverse_engine
from braidinv.inverse_engine import (LiftPoly, asymptotic_check,
                                     closed_form_lift, pair_limit_target,
                                     q_expand, reversion_lift, strengthen_to)
from braidinv.kontsevich import Z

import oracles


def frac(n, d=1):
    return Fraction(n, d)

LIFT_13 = {1: frac(1), 3: frac(-1, 24), 5: frac(3, 640), 7: frac(-5, 7168),
           9: frac(35, 294912), 11: frac(-63, 2883584),
           13: frac(231, 54525952)}


def test_liftpoly_canonicalizes():
    P = LiftPoly({1: 1, 3: 0, 5: "3/640"})
    assert P.coeffs == {1: frac(1), 5: frac(3, 640)}
    with pytest.raises(ValueError):
        LiftPoly({0: 1})


def test_liftpoly_truncate_and_apply():
    P = LiftPoly({1: 1, 3: frac(-1, 24)})
    assert P.truncate(1).coeffs == {1: frac(1)}
    expected = combine(tau(), 1, BraidSum(oracles.tau_power(3)), frac(-1, 24))
    assert P.apply() == expected


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
    P = strengthen_to(tau(), 13)
    assert P.coeffs == LIFT_13


def test_strengthen_to_rejects_bad_inputs():
    with pytest.raises(ValueError):
        strengthen_to(tau(), 6)
    with pytest.raises(ValueError):
        strengthen_to(identity(), 3)


def test_strengthened_lift_is_flat():
    """The whole point: the integral of the lift is t through the order."""
    for order in (1, 3, 7, 11):
        z = Z(strengthen_to(tau(), order).apply(), order)
        assert list(z) == [0, 1] + [0] * (order - 1)


def test_three_routes_agree():
    for order in (1, 3, 5, 9, 13):
        a = strengthen_to(tau(), order).coeffs
        b = reversion_lift(order).coeffs
        c = closed_form_lift(order).coeffs
        assert a == b == c


def test_strengthen_general_seed():
    """A different order-one seed gets its own corrections, every degree."""
    seed = combine(sigma(), 2, identity(), -2)
    P = strengthen_to(seed, 3)
    assert P.coeffs[1] == 1
    assert P.coeffs[2] == frac(-1, 4)
    assert P.coeffs[3] == frac(1, 12)
    z = Z(P.apply(), 3)
    assert list(z) == [0, 1, 0, 0]
    # seeds whose integral has a linear coefficient other than 1
    for seed in (seed, BraidSum({1: 2, -1: -2}),
                 BraidSum({1: frac(1, 3), -1: frac(-1, 3)})):
        for order in (1, 3, 5, 7, 9):
            P = strengthen_to(seed, order)
            z = Z(P.apply(), order)
            assert list(z) == [0, 1] + [0] * (order - 1)
            assert P.coeffs == oracles.strengthen_stepwise(seed.terms, order)


def test_strengthen_solves_once_and_checks_once(monkeypatch):
    calls = []
    for name in ("_lift_series", "Z"):
        original = getattr(inverse_engine, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(inverse_engine, name, counting)
    apply = LiftPoly.apply

    def counting_apply(self):
        calls.append("apply")
        return apply(self)

    monkeypatch.setattr(LiftPoly, "apply", counting_apply)
    strengthen_to(tau(), 21)
    assert calls == ["_lift_series", "apply", "Z"]


def test_strengthen_reports_a_broken_invariant(monkeypatch):
    solve = inverse_engine._lift_series
    monkeypatch.setattr(inverse_engine, "_lift_series",
                        lambda seed, order: solve(seed, order)[:-1] + [1])
    with pytest.raises(ArithmeticError, match="not flat through order 5"):
        strengthen_to(tau(), 5)


def test_q_expand_golden_rows():
    assert oracles.pair_half(q_expand(LiftPoly({1: 1})).terms) == {1: frac(1)}
    row2 = q_expand(LiftPoly({1: 1, 3: frac(-1, 24)}))
    assert oracles.pair_half(row2.terms) == {1: frac(9, 8), 3: frac(-1, 24)}
    row7 = q_expand(strengthen_to(tau(), 7))
    assert oracles.pair_half(row7.terms) == {
        1: frac(1225, 1024), 3: frac(-245, 3072), 5: frac(49, 5120),
        7: frac(-5, 7168)}


def test_q_expand_matches_binomial_oracle():
    P = strengthen_to(tau(), 11)
    assert oracles.pair_half(q_expand(P).terms) == \
        oracles.pair_expand_binomial(P.coeffs)


def test_q_expand_requires_default_seed():
    seed = combine(sigma(), 2, identity(), -2)
    with pytest.raises(ValueError):
        q_expand(LiftPoly({1: 1}, seed))


def test_pair_expansion_rebuild_round_trip():
    P = strengthen_to(tau(), 9)
    assert q_expand(P) == P.apply()


def test_power_pair_expand_odd_and_even():
    P = strengthen_to(tau(), 5)
    cube = q_expand(P, 3)
    assert oracles.pair_half(cube.terms)
    applied = P.apply()
    cubed = multiply(multiply(applied, applied), applied)
    assert cube == cubed

    square = q_expand(P, 2)
    squared = multiply(applied, applied)
    assert square == squared
    assert all(square.terms.get(-n) == c for n, c in square.terms.items())
    rebuilt = BraidSum({0: square.terms.get(0, 0)})
    for n, c in square.terms.items():
        if n > 0:
            rebuilt = combine(rebuilt, 1, BraidSum({n: c, -n: c}), 1)
    assert rebuilt == squared


def test_power_pair_expand_power_one_is_q_expand():
    P = strengthen_to(tau(), 7)
    assert q_expand(P, 1) == q_expand(P)
    with pytest.raises(ValueError):
        q_expand(P, 0)


def test_pair_limit_target_signs():
    assert pair_limit_target(1) > 0
    assert pair_limit_target(3) < 0
    assert pair_limit_target(5) > 0
    assert pair_limit_target(7) < 0


def test_asymptotic_golden_rows():
    rows = asymptotic_check(1, [7, 9])
    assert rows[0].coeff == frac(1225, 1024)
    assert rows[1].coeff == frac(19845, 16384)
    assert rows[1].abs_error < rows[0].abs_error


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
    full = strengthen_to(tau(), 13)
    rng = random.Random(733)
    for _ in range(4):
        order = rng.choice([1, 3, 5, 7, 9, 11])
        assert full.truncate(order).coeffs == strengthen_to(tau(), order).coeffs
