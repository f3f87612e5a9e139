import random
from fractions import Fraction

import mpmath
import pytest

from braidinv import cli, inverse_engine, pair_expansions
from braidinv.braid_ring import (BraidSum, coefficient, combine, multiply,
                                 pair, sigma_power, tau)
from braidinv.inverse_engine import (_lift_series, closed_form_lift,
                                     solved_lift)
from braidinv.kontsevich import Z
from braidinv.pair_expansions import (asymptotic_check, closed_form_expansion,
                                      tau_expansions)

import oracles


def frac(n, d=1):
    return Fraction(n, d)

LIFT_13 = (0, frac(1), 0, frac(-1, 24), 0, frac(3, 640), 0, frac(-5, 7168), 0,
           frac(35, 294912), 0, frac(-63, 2883584), 0, frac(231, 54525952))


def applied(P, seed=oracles.TAU):
    """The braid sum of sum_k P[k] seed^k, by the oracle's multiply loop."""
    return BraidSum(oracles.braid_poly(dict(enumerate(P)), seed))


def test_lift_truncate_and_expand():
    expected = combine(tau(), 1, BraidSum(oracles.tau_power(3)), frac(-1, 24))
    assert applied((0, frac(1), 0, frac(-1, 24))) == expected
    assert tau_expansions([1, 3]) == [tau(), expected]
    assert tau_expansions([3, 1]) == [expected, tau()]


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
    assert solved_lift(13) == _lift_series(tau(), 13) == LIFT_13


def test_strengthen_to_rejects_bad_inputs():
    for orders, message in (([6], "order 6 is not odd"),
                            ([9, 10, 49], "order 10 is not odd"),
                            ([-1], "order -1 is not odd"),
                            ([9, 3, 9], "order 9 given twice")):
        with pytest.raises(ValueError, match=message):
            tau_expansions(orders)
    for order in (6, 0, -1):
        with pytest.raises(ValueError, match=f"order {order} is not odd"):
            solved_lift(order)


def test_strengthened_lift_is_flat():
    """The whole point: the integral of the lift is t through the order."""
    orders = (1, 3, 7, 11)
    for order, b in zip(orders, tau_expansions(orders)):
        assert list(Z(b, order)) == [0, 1] + [0] * (order - 1)


def test_three_routes_agree():
    for order in (1, 3, 5, 9, 13):
        a = solved_lift(order)
        b = oracles.lagrange_revert(oracles.integral(oracles.TAU, order))
        c = closed_form_lift(order)
        assert a == tuple(b) == c


def test_strengthen_general_seed():
    """A different order-one seed gets its own corrections, every degree."""
    seed = combine(sigma_power(1), 2, sigma_power(0), -2)
    P = _lift_series(seed, 3)
    assert P[1] == 1
    assert P[2] == frac(-1, 4)
    assert P[3] == frac(1, 12)
    assert list(Z(applied(P, seed.terms), 3)) == [0, 1, 0, 0]
    # seeds whose integral has a linear coefficient other than 1
    for seed in (seed, BraidSum({1: 2, -1: -2}),
                 BraidSum({1: frac(1, 3), -1: frac(-1, 3)})):
        for order in (1, 3, 5, 7, 9):
            P = _lift_series(seed, order)
            assert list(Z(applied(P, seed.terms), order)) == \
                [0, 1] + [0] * (order - 1)
            assert P == oracles.strengthen_stepwise(seed.terms, order)


def test_strengthen_solves_once_and_checks_once(monkeypatch):
    calls = []
    for module, name in ((inverse_engine, "_lift_series"),
                         (inverse_engine, "closed_form_lift"),
                         (pair_expansions, "closed_form_expansion"),
                         (pair_expansions, "moments")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls.append((name, args[-1]))
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    # the lift solves once and compares once; the expansions solve nothing,
    # build each order once and certify the top one alone
    solved_lift(21)
    assert calls == [("closed_form_lift", 21), ("_lift_series", 21)]
    calls.clear()
    tau_expansions([5, 21, 1])
    assert [name for name, _ in calls] == \
        ["closed_form_expansion"] * 3 + ["moments"]
    assert calls[-1][1] == closed_form_expansion(21)


def test_strengthen_reports_a_broken_invariant(monkeypatch):
    # one coefficient of the solved lift off, and the lift command stops
    solve = inverse_engine._lift_series
    for at in (1, 2, 5):
        def corrupted(seed, order, at=at):
            P = list(solve(seed, order))
            P[at] += frac(1, 10 ** 9)
            return tuple(P)

        monkeypatch.setattr(inverse_engine, "_lift_series", corrupted)
        with pytest.raises(ArithmeticError,
                           match=r"arcsinh\(t/2\) through order 5"):
            solved_lift(5)
        with pytest.raises(ArithmeticError, match="through order 5"):
            cli.main(["lift", "--order", "5"])


def test_a_wrong_sign_in_the_ratio_fails_the_flatness_check(monkeypatch):
    # a_(m+1)/a_m with + for -: every weight keeps the sign of a_1
    right = pair_expansions.closed_form_expansion

    def wrong_sign(order):
        b = right(order)
        return BraidSum.over({n: abs(c) * (1 if n > 0 else -1)
                              for n, c in b.nums.items()}, b.den)

    monkeypatch.setattr(pair_expansions, "closed_form_expansion", wrong_sign)
    assert wrong_sign(1) == tau()
    for orders in ([3], [1, 7], [11, 5]):
        with pytest.raises(ArithmeticError,
                           match=f"not flat through order {max(orders)}"):
            tau_expansions(orders)
    with pytest.raises(ArithmeticError, match="not flat through order 49"):
        cli.main(["asymptotics", "--j", "3", "--orders", "9,25,49"])


def test_closed_form_is_the_staggered_difference_weights():
    # sympy's Fornberg recursion for f'(0) on the nodes +-1/2, ..., +-r/2:
    # the weight at node x/2 is the coefficient of q^x
    import sympy
    from sympy.calculus.finite_diff import finite_diff_weights
    for order in range(1, 22, 2):
        exponents = [s * x for x in range(1, order + 1, 2) for s in (1, -1)]
        weights = finite_diff_weights(
            1, [sympy.Rational(x, 2) for x in exponents], 0)[1][-1]
        b = closed_form_expansion(order)
        assert [frac(int(w.p), int(w.q)) for w in weights] == \
            [coefficient(b, x) for x in exponents], order
        assert len(b.nums) == len(exponents)


def test_tau_lift_golden_rows():
    row1, row2, row7 = tau_expansions([1, 3, 7])
    assert oracles.pair_half(row1.terms) == {1: frac(1)}
    assert oracles.pair_half(row2.terms) == {1: frac(9, 8), 3: frac(-1, 24)}
    assert oracles.pair_half(row7.terms) == {
        1: frac(1225, 1024), 3: frac(-245, 3072), 5: frac(49, 5120),
        7: frac(-5, 7168)}


def test_tau_lift_matches_binomial_oracle():
    P = oracles.arcsinh2_binomial(11)
    [b] = tau_expansions([11])
    assert oracles.pair_half(b.terms) == \
        oracles.pair_expand_binomial({k: c for k, c in enumerate(P) if c})


def test_pair_expansion_rebuild_round_trip():
    # the solve's lift expanded by the multiply loop, against the pairs
    b = applied(_lift_series(tau(), 9))
    rebuilt = BraidSum()
    for n, c in oracles.pair_half(tau_expansions([9])[0].terms).items():
        rebuilt = combine(rebuilt, 1, pair(n), c)
    assert rebuilt == b


def test_power_pair_expand_odd_and_even():
    lift = applied(closed_form_lift(5))
    [cube] = tau_expansions([5], 3)
    assert oracles.pair_half(cube.terms)
    cubed = multiply(multiply(lift, lift), lift)
    assert cube == cubed

    [square] = tau_expansions([5], 2)
    squared = multiply(lift, lift)
    assert square == squared
    assert all(square.terms.get(-n) == c for n, c in square.terms.items())
    rebuilt = BraidSum({0: square.terms.get(0, 0)})
    for n, c in square.terms.items():
        if n > 0:
            rebuilt = combine(rebuilt, 1, BraidSum({n: c, -n: c}), 1)
    assert rebuilt == squared


def test_tau_lift_power_one_is_the_strengthened_lift():
    assert tau_expansions([7], 1) == tau_expansions([7]) == \
        [applied(solved_lift(7))]
    with pytest.raises(ValueError, match="power must be positive"):
        tau_expansions([7], 0)


def test_pair_limit_target_signs(capsys):
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
    # the solve never rewrites lower coefficients, so one long run carries
    # every shorter answer inside it, and a request's expansions do not
    # depend on the other orders it reads
    full = _lift_series(tau(), 13)
    expansions = tau_expansions([1, 3, 5, 7, 9, 11, 13])
    rng = random.Random(733)
    for _ in range(4):
        at = rng.randrange(6)
        order = 2 * at + 1
        assert (full[:order + 1], [expansions[at]]) == \
            (_lift_series(tau(), order), tau_expansions([order]))
        assert expansions[at] == applied(full[:order + 1])
