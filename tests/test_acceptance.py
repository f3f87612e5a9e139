"""Acceptance suite: thirteen criteria, one test and one printed line each.

Every test prints 'criterion NN: PASS/FAIL - detail' with the measured
quantity before asserting, so a full run documents what was checked even
when everything is green.  Exact criteria use Fraction equality; the float
criteria state their tolerance in the assertion.
"""

import random
from fractions import Fraction

import mpmath

from braidinv.basis_solver import build_unbalanced, entry_sequence, invert
from braidinv.braid_ring import (BraidSum, combine, filtration_order,
                                 multiply, sigma_power, tau)
from braidinv.convergence import (biconvergence_report,
                                  filtration_condition_c, verdict)
from braidinv.inverse_engine import (_lift_series, closed_form_lift,
                                     solved_lift)
from braidinv.kontsevich import Z
from braidinv.pair_expansions import asymptotic_check, tau_expansions
from braidinv.regularization import leibniz_partial, theta_value
from braidinv.sequences import (harmonic_sigma_sequence,
                                lift_truncation_sequence)

import oracles


def frac(n, d=1):
    return Fraction(n, d)


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_lift_coefficients():
    expected = {1: frac(1), 3: frac(-1, 24), 5: frac(3, 640),
                7: frac(-5, 7168), 9: frac(35, 294912),
                11: frac(-63, 2883584), 13: frac(231, 54525952)}
    computed = solved_lift(13)
    report(1, {k: c for k, c in enumerate(computed) if c} == expected,
           f"seven lift coefficients through degree 13, exact; "
           f"top = {computed[13]}")


def test_criterion_02_route_agreement():
    orders = list(range(1, 26, 2))
    mismatches = []
    for n in orders:
        a = _lift_series(tau(), n)
        b = oracles.arcsinh2_binomial(n)
        c = closed_form_lift(n)
        if not a == b == c:
            mismatches.append(n)
    report(2, not mismatches,
           f"strengthening = binomial series oracle = closed form "
           f"(--method reversion) at odd orders "
           f"{orders[0]}..{orders[-1]}; mismatches: {mismatches or 'none'}")


def test_criterion_03_integral_golden_series():
    half = frac(1, 2)
    ok = (list(Z(sigma_power(1), 7)) == oracles.exp_series(half, 7)
          and list(Z(sigma_power(-1), 7)) == oracles.exp_series(-half, 7)
          and list(Z(tau(), 7)) == [0, 1, 0, frac(1, 24), 0,
                                    frac(1, 1920), 0, frac(1, 322560)])
    report(3, ok, "integral of the two generators and their difference "
                  "matches the displayed degree-7 series exactly")


def test_criterion_04_pair_expansion_rows():
    printed = {
        1: {1: frac(1)},
        3: {1: frac(9, 8), 3: frac(-1, 24)},
        7: {1: frac(1225, 1024), 3: frac(-245, 3072), 5: frac(49, 5120),
            7: frac(-5, 7168)},
        9: {1: frac(19845, 16384), 3: frac(-735, 8192), 5: frac(567, 40960),
            7: frac(-405, 229376), 9: frac(35, 294912)},
    }
    row5_printed = {1: frac(160083, 131072), 5: frac(22869, 1310720),
                    7: frac(-5445, 1835008), 9: frac(847, 2359296),
                    11: frac(-63, 2883584)}
    row5_flagged_correction = frac(-12705, 131072)

    expansions = tau_expansions([*printed, 11])
    ok = True
    for expected, expansion in zip(printed.values(), expansions):
        if oracles.pair_half(expansion.terms) != expected:
            ok = False
    row5 = oracles.pair_half(expansions[-1].terms)
    for n, expected in row5_printed.items():
        if row5.get(n) != expected:
            ok = False
    flagged_ok = row5.get(3) == row5_flagged_correction
    report(4, ok and flagged_ok,
           f"reference rows 1-4 exact; row 5 exact except the pair-3 cell, "
           f"FLAGGED: computed {row5.get(3)} against the printed "
           f"-12705/13107")


def test_criterion_05_wallis_limit():
    rows = asymptotic_check(1, list(range(7, 50, 2)))
    with mpmath.workdps(50):
        errors = [abs(mpmath.mpf(c.numerator) / c.denominator - 4 / mpmath.pi)
                  for _, c in rows]
        final_ok = errors[-1] < mpmath.mpf("0.02")
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    report(5, decreasing and final_ok,
           f"|pair-1 coefficient - 4/pi| strictly decreasing over odd "
           f"orders 7..49; at 49 it is {mpmath.nstr(errors[-1], 6)} < 0.02")


def test_criterion_06_higher_pair_limits():
    details = []
    ok = True
    for j in (3, 5):
        [(_, c)] = asymptotic_check(j, [49])
        with mpmath.workdps(50):
            limit = (-1) ** ((j - 1) // 2) * 4 / (mpmath.pi * j * j)
            error = abs(mpmath.mpf(c.numerator) / c.denominator - limit)
            ok = ok and error < mpmath.mpf("0.05")
        details.append(f"j={j}: {mpmath.nstr(error, 6)}")
    report(6, ok, "distance to the signed limit 4/(pi j^2) at order 49, "
                  + ", ".join(details) + ", both < 0.05")


def test_criterion_07_beta_zeros():
    odd_zero = all(theta_value(k) == 0 for k in (1, 3, 5, 7, 9, 11, 13))
    # the relation at s reduces exactly to the Abel value at s - 2
    relation_zero = all(theta_value(s - 2) == 0 for s in (3, 5, 7, 9))
    report(7, odd_zero and relation_zero,
           "Abel values vanish at odd exponents 1..13 and the residue "
           "relation reduces to zero at s in {3,5,7,9}, exact")


def test_criterion_08_euler_consistency():
    euler = oracles.euler_numbers_sech(12)
    bad = [k for k in range(0, 13, 2)
           if theta_value(k) != Fraction(euler[k], 2)]
    report(8, not bad,
           f"Abel values at even exponents 0..12 equal half the Euler "
           f"numbers from the sech series; mismatches: {bad or 'none'}")


def test_criterion_09_leibniz_estimate():
    value = 4 * leibniz_partial(10 ** 4)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(value.numerator) / value.denominator
                  / mpmath.pi - 1)
        ok = err < mpmath.mpf("1e-4")
        detail = mpmath.nstr(err, 6)
    report(9, ok, f"|4 L(10^4) / pi - 1| = {detail} < 1e-4")


def test_criterion_10_balanced_entry_tables():
    zeta2_printed = [frac(-1), frac(-5, 4), frac(-49, 36), frac(-205, 144),
                     frac(-5269, 3600), frac(-5369, 3600),
                     frac(266681, 176400), frac(-1077749, 705600)]
    zeta2_computed = entry_sequence(1, 3, range(1, 9))
    zeta2_ok = all(c == p for r, c, p in
                   zip(range(1, 9), zeta2_computed, zeta2_printed) if r != 7)
    flagged_ok = zeta2_computed[6] == frac(-266681, 176400)

    onefive_printed = [frac(1, 4), frac(7, 18), frac(91, 192),
                       frac(1529, 2880), frac(37037, 64800),
                       frac(54613, 90720), frac(63566689, 101606400)]
    onefive = entry_sequence(1, 5, range(2, 9))
    diffs = [b - a for a, b in zip([frac(0)] + onefive, onefive)]
    diffs_printed = [frac(1, 4), frac(5, 36), frac(49, 576), frac(41, 720),
                     frac(5269, 129600), frac(767, 25200),
                     frac(266681, 11289600)]
    report(10, zeta2_ok and flagged_ok and onefive == onefive_printed
           and diffs == diffs_printed,
           f"(1,3) entries r=1..8 exact with the 7th sign FLAGGED "
           f"(computed {zeta2_computed[6]} against printed 266681/176400); "
           f"(1,5) entries and differences r=2..8 exact")


def test_criterion_11_zeta2_identity():
    entries = entry_sequence(1, 3, range(1, 11))
    bad = [r for r, entry in zip(range(1, 11), entries)
           if -entry != oracles.harmonic_second(r)]
    report(11, not bad,
           f"-N_r(1,3) equals the r-th partial sum of 1/k^2 for r=1..10, "
           f"exact; failures: {bad or 'none'}")


def test_criterion_12_unbalanced_growth():
    values = [abs(invert(build_unbalanced(r))[0][2]) for r in range(4, 11)]
    growing = all(b > a for a, b in zip(values, values[1:]))
    report(12, growing,
           f"one-sided inverse (1,3) magnitudes strictly increase over "
           f"r=4..10; last = {values[-1]}")


def test_criterion_13_property_suites():
    rng = random.Random(1313)
    problems = []

    for _ in range(10):
        a = BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3)
                      for _ in range(2)})
        b = BraidSum({rng.randrange(-3, 4): rng.randrange(-2, 3)
                      for _ in range(2)})
        if list(Z(multiply(a, b), 6)) != \
                oracles.series_mul(Z(a, 6), Z(b, 6), 6):
            problems.append("homomorphism")
        if Z(combine(a, 2, b, -3), 6) != tuple(
                2 * x - 3 * y for x, y in zip(Z(a, 6), Z(b, 6))):
            problems.append("linearity")

    powers = [BraidSum(oracles.tau_power(i)) for i in range(5)]
    for i in range(1, 4):
        for j in range(1, 4):
            if filtration_order(multiply(powers[i], powers[j])) < i + j:
                problems.append("filtration additivity")

    for i in range(1, 5):
        # the residue: the graded component at the filtration order
        order = filtration_order(powers[i])
        if order != i or Z(powers[i], i)[i] != 1:
            problems.append("residue")

    round_trips = 0
    while round_trips < 5:
        # the lift solve on a random seed of filtration order one
        coeffs = [frac(rng.randrange(-3, 4), rng.randrange(1, 4))
                  for _ in range(2)]
        seed = BraidSum(dict(zip(rng.sample(range(-5, 6), 3),
                                 coeffs + [-sum(coeffs)])))
        if filtration_order(seed) != 1:
            continue
        round_trips += 1
        order = rng.randrange(3, 9)
        r = _lift_series(seed, order)
        if oracles.series_compose(r, oracles.integral(seed.terms, order)) \
                != [0, 1] + [0] * (order - 1):
            problems.append("reversion round trip")

    lifts = lift_truncation_sequence(8)
    if filtration_condition_c(lifts):
        problems.append("condition (c) on the lift truncations")
    harmonic = harmonic_sigma_sequence(8)
    if not filtration_condition_c(harmonic):
        problems.append("condition (c) on the harmonic sequence")
    a, b, _ = biconvergence_report(lifts, 5)
    if (verdict(a), verdict(b)) != ("pass",) * 2:
        problems.append("verdicts on the lift truncations")
    if not biconvergence_report(harmonic, 5)[2]:
        problems.append("harmonic verdict (c)")

    report(13, not problems,
           f"integral homomorphism and linearity, filtration additivity, "
           f"residue values, reversion round trips, condition-(c) verdicts; "
           f"failures: {problems or 'none'}")
