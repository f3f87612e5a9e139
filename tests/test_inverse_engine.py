import inspect
import random
from fractions import Fraction
from functools import reduce

import mpmath
import pytest

from braidinv import cli, inverse_engine, kontsevich, pair_expansions
from braidinv.braid_ring import BraidSum, pair, sigma_power, tau
from braidinv.inverse_engine import closed_form_lift, solved_lift
from braidinv.pair_expansions import (PairSum, asymptotic_check,
                                      closed_form_expansion, tau_expansions)

import oracles
from oracles import braid, combine, read_z, terms


LIFT_13 = (0, Fraction(1), 0, Fraction(-1, 24), 0, Fraction(3, 640), 0,
           Fraction(-5, 7168), 0, Fraction(35, 294912), 0,
           Fraction(-63, 2883584), 0, Fraction(231, 54525952))


def applied(P, seed=oracles.TAU):
    """The braid sum of sum_k P[k] seed^k, by the oracle's multiply loop."""
    return braid(oracles.braid_poly(dict(enumerate(P)), seed))


def exact_all(sums):
    """Each pair sum as its oracle exponent-to-Fraction map."""
    return [oracles.exact(b) for b in sums]


def lift_of(seed, order):
    """The general-seed lift solve on a BraidSum seed's integers."""
    return oracles._lift_series(seed.nums, seed.den, order)


def test_lift_truncate_and_expand():
    expected = combine(tau(), 1, oracles.tau_power(3), Fraction(-1, 24))
    assert oracles.same(applied((0, 1, 0, Fraction(-1, 24))), expected)
    assert exact_all(tau_expansions([1, 3])) == [terms(tau()), terms(expected)]
    assert exact_all(tau_expansions([3, 1])) == [terms(expected), terms(tau())]


def test_strengthen_single_steps():
    P1 = {1: Fraction(1)}
    P3 = oracles.strengthen_step(oracles.strengthen_step(P1, 2), 3)
    assert P3 == {1: Fraction(1), 3: Fraction(-1, 24)}
    P5 = oracles.strengthen_step(oracles.strengthen_step(P3, 4), 5)
    assert P5 == {1: Fraction(1), 3: Fraction(-1, 24), 5: Fraction(3, 640)}


def test_strengthen_step_rejects_misuse():
    with pytest.raises(ValueError):
        oracles.strengthen_step({1: Fraction(1)}, 1)
    # degree 4 step before the degree 3 correction: precondition broken
    with pytest.raises(ValueError):
        oracles.strengthen_step({1: Fraction(1)}, 4)


def test_strengthen_to_golden_13():
    assert solved_lift(13) == lift_of(tau(), 13)
    assert oracles.exact(solved_lift(13)) == LIFT_13


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
        assert read_z(braid(oracles.exact(b)), order) == \
            [0, 1] + [0] * (order - 1)


def test_three_routes_agree():
    for order in (1, 3, 5, 9, 13):
        a = oracles.exact(solved_lift(order))
        b = oracles.lagrange_revert(oracles.integral(oracles.TAU, order))
        c = oracles.exact(closed_form_lift(order))
        assert a == tuple(b) == c


def test_strengthen_general_seed():
    """A different order-one seed gets its own corrections, every degree."""
    seed = combine(sigma_power(1), 2, sigma_power(0), -2)
    P = oracles.exact(lift_of(seed, 3))
    assert P[1] == 1
    assert P[2] == Fraction(-1, 4)
    assert P[3] == Fraction(1, 12)
    assert read_z(applied(P, terms(seed)), 3) == [0, 1, 0, 0]
    # seeds whose integral has a linear coefficient other than 1
    for seed in (seed, BraidSum({1: 2, -1: -2}), BraidSum({1: 1, -1: -1}, 3)):
        for order in (1, 3, 5, 7, 9):
            P = oracles.exact(lift_of(seed, order))
            assert read_z(applied(P, terms(seed)), order) == \
                [0, 1] + [0] * (order - 1)
            assert P == oracles.strengthen_stepwise(terms(seed), order)


def test_strengthen_solves_once_and_checks_once(monkeypatch):
    calls = []
    for module, name in ((inverse_engine, "closed_form_lift"),
                         (pair_expansions, "closed_form_expansion"),
                         (kontsevich, "Z")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls.append((name, args[-1]))
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    # the lift is built once and certified from its pairs; the expansions
    # solve nothing and build each order once, certified from its own
    # cells, and only a power is checked through the integral
    solved_lift(21)
    assert calls == [("closed_form_lift", 21)]
    calls.clear()
    tau_expansions([5, 21, 1])
    assert calls == [("closed_form_expansion", r) for r in (5, 21, 1)]
    calls.clear()
    tau_expansions([5], 3)
    assert calls == [("closed_form_expansion", 5), ("Z", 8)]


def test_strengthen_reports_a_broken_invariant(monkeypatch):
    # one coefficient of the built lift off, still a reduced pair, and the
    # lift command stops under either method
    build = inverse_engine.closed_form_lift
    for at, broken in ((1, "it is not t plus odd powers"),
                       (2, "it is not t plus odd powers"),
                       (5, r"degree 5 breaks \(4 \+ t\^2\) P'' \+ t P' = 0")):
        def corrupted(*args, at=at):
            P = list(build(*args))
            c = oracles.exact(P[at]) + Fraction(1, 10 ** 9)
            P[at] = (c.numerator, c.denominator)
            return tuple(P)

        monkeypatch.setattr(inverse_engine, "closed_form_lift", corrupted)
        with pytest.raises(ArithmeticError,
                           match=r"the lift is not 2 arcsinh\(t/2\) through "
                                 f"order 5: {broken}"):
            solved_lift(5)
        for method in ("strengthen", "reversion"):
            with pytest.raises(ArithmeticError, match="through order 5"):
                cli.main(["lift", "--order", "5", "--method", method])


def test_the_recurrences_are_the_general_solve_at_q_minus_q_inverse():
    # the square-root recurrence of tests/oracles.py, every odd truncation
    # through 301 against the other oracles' prefixes
    binomial = oracles.arcsinh2_binomial(301)
    general = oracles._lift_series({1: 1, -1: -1}, 1, 301)
    for order in range(1, 302, 2):
        P = oracles._recurrence_lift(order)
        assert P == general[:order + 1]
        assert oracles.exact(P) == binomial[:order + 1]


def test_a_wrong_sign_in_the_ratio_fails_the_flatness_check(monkeypatch):
    # a_(m+1)/a_m with + for -: every weight keeps the sign of a_1
    right = pair_expansions.closed_form_expansion

    def wrong_sign(order):
        b = right(order)
        return PairSum({n: abs(c) for n, c in b.half.items()}, 0, b.den, -1)

    monkeypatch.setattr(pair_expansions, "closed_form_expansion", wrong_sign)
    assert oracles.exact(wrong_sign(1)) == terms(tau())
    # the message names the first order that fails
    for orders, first in (([3], 3), ([1, 7], 7), ([11, 5], 11)):
        with pytest.raises(ArithmeticError,
                           match=f"not flat through order {first} at"):
            tau_expansions(orders)
    with pytest.raises(ArithmeticError, match="not flat through order 9 at"):
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
        values = oracles.exact(closed_form_expansion(order))
        assert [Fraction(int(w.p), int(w.q)) for w in weights] == \
            [values[x] for x in exponents], order
        assert len(values) == len(exponents)


def test_tau_lift_golden_rows():
    row1, row2, row7 = tau_expansions([1, 3, 7])
    assert oracles.pair_half(oracles.exact(row1)) == {1: Fraction(1)}
    assert oracles.pair_half(oracles.exact(row2)) == \
        {1: Fraction(9, 8), 3: Fraction(-1, 24)}
    assert oracles.pair_half(oracles.exact(row7)) == {
        1: Fraction(1225, 1024), 3: Fraction(-245, 3072),
        5: Fraction(49, 5120), 7: Fraction(-5, 7168)}


def test_tau_lift_matches_binomial_oracle():
    P = oracles.arcsinh2_binomial(11)
    [b] = tau_expansions([11])
    assert oracles.pair_half(oracles.exact(b)) == \
        oracles.pair_expand_binomial({k: c for k, c in enumerate(P) if c})


def test_pair_expansion_rebuild_round_trip():
    # the solve's lift expanded by the multiply loop, against the pairs
    b = applied(oracles.exact(lift_of(tau(), 9)))
    rebuilt = BraidSum({})
    for n, c in oracles.pair_half(
            oracles.exact(tau_expansions([9])[0])).items():
        rebuilt = combine(rebuilt, 1, pair(n), c)
    assert oracles.same(rebuilt, b)


def test_power_pair_expand_odd_and_even():
    # each result read from its fields and converted to a BraidSum: a
    # conversion that drops the q^0 term of the square fails both
    lift = applied(oracles.exact(closed_form_lift(5)))
    [cube] = tau_expansions([5], 3)
    assert oracles.pair_half(oracles.exact(cube))
    cubed = oracles.multiply(oracles.multiply(lift, lift), lift)
    assert oracles.exact(cube) == terms(cubed)
    assert oracles.same(cube.braid_sum(), cubed)

    [square] = tau_expansions([5], 2)
    squared = oracles.multiply(lift, lift)
    values = oracles.exact(square)
    assert values == terms(squared) and 0 in values
    assert oracles.same(square.braid_sum(), squared)
    assert all(values.get(-n) == c for n, c in values.items())
    rebuilt = braid({0: values.get(0, 0)})
    for n, c in values.items():
        if n > 0:
            rebuilt = combine(rebuilt, 1, braid({n: c, -n: c}), 1)
    assert oracles.same(rebuilt, squared)


def test_tau_lift_power_one_is_the_strengthened_lift():
    assert exact_all(tau_expansions([7], 1)) == \
        exact_all(tau_expansions([7])) == \
        [terms(applied(oracles.exact(solved_lift(7))))]
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
    rows = [(r, oracles.exact(c)) for r, c in asymptotic_check(1, [7, 9])]
    assert rows == [(7, Fraction(1225, 1024)), (9, Fraction(19845, 16384))]
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
    full = lift_of(tau(), 13)
    expansions = tau_expansions([1, 3, 5, 7, 9, 11, 13])
    rng = random.Random(733)
    for _ in range(4):
        at = rng.randrange(6)
        order = 2 * at + 1
        assert (full[:order + 1], [oracles.exact(expansions[at])]) == \
            (lift_of(tau(), order), exact_all(tau_expansions([order])))
        assert oracles.exact(expansions[at]) == \
            terms(applied(oracles.exact(full[:order + 1])))


def test_a_symmetric_sum_read_as_antisymmetric_fails(monkeypatch):
    # the closed form with its sign flipped is symmetric: its cells, read
    # as if it were antisymmetric, would pass, so the certificate refuses
    # the sign; the message names the first order that fails
    right = pair_expansions.closed_form_expansion

    def flipped(order):
        b = right(order)
        return PairSum(b.half, 0, b.den, 1)

    monkeypatch.setattr(pair_expansions, "closed_form_expansion", flipped)
    for orders in ([1], [3, 7]):
        with pytest.raises(ArithmeticError,
                           match=f"not flat through order {orders[0]} at"):
            tau_expansions(orders)
    # an even power carries a q^0 term, which no antisymmetric sum has
    monkeypatch.setattr(pair_expansions, "closed_form_expansion", right)
    [square] = tau_expansions([5], 2)
    with pytest.raises(ArithmeticError, match=r"has a q\^0 term"):
        PairSum(square.half, square.zero, square.den, -1)


@pytest.mark.parametrize("n", [1, 3, 21])
def test_a_corrupted_pair_coefficient_fails_the_flatness_check(
        n, monkeypatch):
    # one positive-half numerator of the top expansion off by one, at the
    # first pair, the second and the top
    right = pair_expansions.closed_form_expansion

    def corrupted(order):
        b = right(order)
        if order == 21:
            b = PairSum({**b.half, n: b.half[n] + 1}, 0, b.den, -1)
        return b

    monkeypatch.setattr(pair_expansions, "closed_form_expansion", corrupted)
    with pytest.raises(ArithmeticError, match="not flat through order 21"):
        tau_expansions([5, 21])


# faults planted in the product of pair sums, each a (right, wrong) edit
# of its source
PRODUCT_FAULTS = {
    "sign sum at i = j flipped": ("zero += (s + t)", "zero -= (s + t)"),
    "left q^0 times right half dropped":
        ("half = {j: a.zero * y for j, y in b.half.items()}", "half = {}"),
    "left sign in the i > j branch": ("+ t * xy", "+ s * xy"),
}


@pytest.mark.parametrize("fault", sorted(PRODUCT_FAULTS))
def test_a_planted_fault_in_the_product_fails_the_certificate(fault,
                                                              monkeypatch):
    right, wrong = PRODUCT_FAULTS[fault]
    source = inspect.getsource(pair_expansions.times)
    assert source.count(right) == 1
    namespace = vars(pair_expansions).copy()
    exec(source.replace(right, wrong), namespace)
    monkeypatch.setattr(pair_expansions, "times", namespace["times"])
    for r in (1, 5, 21):
        with pytest.raises(ArithmeticError, match=f"order {r} at power 3"):
            tau_expansions([r], 3)


def test_a_power_that_loses_its_symmetry_fails_its_check(monkeypatch):
    # a product that comes out mirrored under q -> q^-1: the integral of
    # each order's power reads it, and the cube of order 1, the first, fails
    right = pair_expansions.times

    def mirrored(a, b):
        p = right(a, b)
        return p if p.zero else PairSum(p.half, 0, p.den, -p.sign)

    monkeypatch.setattr(pair_expansions, "times", mirrored)
    with pytest.raises(ArithmeticError, match="not flat through order 1 "
                                              "at power 3"):
        tau_expansions([1, 3], 3)


# (q - q^-1)^k planted in the power at (order, power), of filtration order
# k, above the degree order + power through which its check reads the
# integral
@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="a power's check reads its integral through degree "
                          "order + p, fewer values than its pair "
                          "coefficients (ROADMAP item 19)")
@pytest.mark.parametrize("order, power, k", [(3, 2, 6), (1, 3, 5)])
def test_a_planted_fault_above_the_certified_order_fails(order, power, k,
                                                          monkeypatch):
    right = pair_expansions.times
    fault = reduce(right, [PairSum({1: 1}, 0, 1, -1)] * k)

    def planted(a, b):
        # into each product of the fault's symmetry: the square, or the
        # cube and not the square before it
        p = right(a, b)
        return p if p.sign != fault.sign else PairSum(
            {n: p.half.get(n, 0) + p.den * fault.half.get(n, 0)
             for n in p.half.keys() | fault.half.keys()},
            p.zero + p.den * fault.zero, p.den, p.sign)

    # the q^k pair coefficient is one more than the true power's
    b = closed_form_expansion(order)
    wrong, true = (reduce(f, [b] * power) for f in (planted, right))
    assert Fraction(wrong.half[k], wrong.den) == \
        Fraction(true.half.get(k, 0), true.den) + 1
    monkeypatch.setattr(pair_expansions, "times", planted)
    with pytest.raises(ArithmeticError):
        tau_expansions([order], power)
