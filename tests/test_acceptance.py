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
from braidinv.braid_ring import BraidSum, sigma_power, tau
from braidinv.convergence import (biconvergence_report,
                                  filtration_condition_c, verdict)
from braidinv.inverse_engine import closed_form_lift, solved_lift
from braidinv.pair_expansions import asymptotic_check, tau_expansions
from braidinv.regularization import leibniz_partial, theta_value
from braidinv.sequences import (harmonic_sigma_sequence,
                                lift_truncation_sequence)

import oracles
from oracles import filtration_order, read_pairs, read_z


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_lift_coefficients():
    expected = {1: Fraction(1), 3: Fraction(-1, 24), 5: Fraction(3, 640),
                7: Fraction(-5, 7168), 9: Fraction(35, 294912),
                11: Fraction(-63, 2883584), 13: Fraction(231, 54525952)}
    computed = oracles.exact(solved_lift(13))
    report(1, {k: c for k, c in enumerate(computed) if c} == expected,
           f"seven lift coefficients through degree 13, exact; "
           f"top = {computed[13]}")


def test_criterion_02_route_agreement():
    orders = list(range(1, 26, 2))
    mismatches = []
    for n in orders:
        a = oracles.exact(solved_lift(n))
        b = oracles.arcsinh2_binomial(n)
        c = oracles.exact(closed_form_lift(n))
        if not a == b == c:
            mismatches.append(n)
    report(2, not mismatches,
           f"certified lift = binomial series oracle = closed form "
           f"(--method reversion) at odd orders "
           f"{orders[0]}..{orders[-1]}; mismatches: {mismatches or 'none'}")


def test_criterion_03_integral_golden_series():
    half = Fraction(1, 2)
    ok = (read_z(sigma_power(1), 7) == oracles.exp_series(half, 7)
          and read_z(sigma_power(-1), 7) == oracles.exp_series(-half, 7)
          and read_z(tau(), 7) == [0, 1, 0, Fraction(1, 24), 0,
                                    Fraction(1, 1920), 0, Fraction(1, 322560)])
    report(3, ok, "integral of the two generators and their difference "
                  "matches the displayed degree-7 series exactly")


def test_criterion_04_pair_expansion_rows():
    printed = {
        1: {1: Fraction(1)},
        3: {1: Fraction(9, 8), 3: Fraction(-1, 24)},
        7: {1: Fraction(1225, 1024), 3: Fraction(-245, 3072),
            5: Fraction(49, 5120), 7: Fraction(-5, 7168)},
        9: {1: Fraction(19845, 16384), 3: Fraction(-735, 8192),
            5: Fraction(567, 40960), 7: Fraction(-405, 229376),
            9: Fraction(35, 294912)},
    }
    row5_printed = {1: Fraction(160083, 131072), 5: Fraction(22869, 1310720),
                    7: Fraction(-5445, 1835008), 9: Fraction(847, 2359296),
                    11: Fraction(-63, 2883584)}
    row5_flagged_correction = Fraction(-12705, 131072)

    expansions = tau_expansions([*printed, 11])
    ok = True
    for expected, expansion in zip(printed.values(), expansions):
        if oracles.pair_half(oracles.exact(expansion)) != expected:
            ok = False
    row5 = oracles.pair_half(oracles.exact(expansions[-1]))
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
        errors = [abs(mpmath.mpf(num) / den - 4 / mpmath.pi)
                  for _, (num, den) in rows]
        final_ok = errors[-1] < mpmath.mpf("0.02")
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    report(5, decreasing and final_ok,
           f"|pair-1 coefficient - 4/pi| strictly decreasing over odd "
           f"orders 7..49; at 49 it is {mpmath.nstr(errors[-1], 6)} < 0.02")


def test_criterion_06_higher_pair_limits():
    details = []
    ok = True
    for j in (3, 5):
        [(_, (num, den))] = asymptotic_check(j, [49])
        with mpmath.workdps(50):
            limit = (-1) ** ((j - 1) // 2) * 4 / (mpmath.pi * j * j)
            error = abs(mpmath.mpf(num) / den - limit)
            ok = ok and error < mpmath.mpf("0.05")
        details.append(f"j={j}: {mpmath.nstr(error, 6)}")
    report(6, ok, "distance to the signed limit 4/(pi j^2) at order 49, "
                  + ", ".join(details) + ", both < 0.05")


def test_criterion_07_beta_zeros():
    odd_zero = all(theta_value(k) == (0, 1) for k in (1, 3, 5, 7, 9, 11, 13))
    # the relation at s reduces exactly to the Abel value at s - 2
    relation_zero = all(theta_value(s - 2) == (0, 1) for s in (3, 5, 7, 9))
    report(7, odd_zero and relation_zero,
           "Abel values vanish at odd exponents 1..13 and the residue "
           "relation reduces to zero at s in {3,5,7,9}, exact")


def test_criterion_08_euler_consistency():
    euler = oracles.euler_numbers_sech(12)
    bad = [k for k in range(0, 13, 2)
           if read_pairs(theta_value(k)) != Fraction(euler[k], 2)]
    report(8, not bad,
           f"Abel values at even exponents 0..12 equal half the Euler "
           f"numbers from the sech series; mismatches: {bad or 'none'}")


def test_criterion_09_leibniz_estimate():
    num, den = leibniz_partial(10 ** 4)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(4 * num) / den / mpmath.pi - 1)
        ok = err < mpmath.mpf("1e-4")
        detail = mpmath.nstr(err, 6)
    report(9, ok, f"|4 L(10^4) / pi - 1| = {detail} < 1e-4")


def test_criterion_10_balanced_entry_tables():
    zeta2_printed = [Fraction(-1), Fraction(-5, 4), Fraction(-49, 36),
                     Fraction(-205, 144), Fraction(-5269, 3600),
                     Fraction(-5369, 3600), Fraction(266681, 176400),
                     Fraction(-1077749, 705600)]
    zeta2_computed = read_pairs(entry_sequence(1, 3, range(1, 9)))
    zeta2_ok = all(c == p for r, c, p in
                   zip(range(1, 9), zeta2_computed, zeta2_printed) if r != 7)
    flagged_ok = zeta2_computed[6] == Fraction(-266681, 176400)

    onefive_printed = [Fraction(1, 4), Fraction(7, 18), Fraction(91, 192),
                       Fraction(1529, 2880), Fraction(37037, 64800),
                       Fraction(54613, 90720), Fraction(63566689, 101606400)]
    onefive = read_pairs(entry_sequence(1, 5, range(2, 9)))
    diffs = [b - a for a, b in zip([Fraction(0)] + onefive, onefive)]
    diffs_printed = [Fraction(1, 4), Fraction(5, 36), Fraction(49, 576),
                     Fraction(41, 720), Fraction(5269, 129600),
                     Fraction(767, 25200), Fraction(266681, 11289600)]
    report(10, zeta2_ok and flagged_ok and onefive == onefive_printed
           and diffs == diffs_printed,
           f"(1,3) entries r=1..8 exact with the 7th sign FLAGGED "
           f"(computed {zeta2_computed[6]} against printed 266681/176400); "
           f"(1,5) entries and differences r=2..8 exact")


def test_criterion_11_zeta2_identity():
    entries = read_pairs(entry_sequence(1, 3, range(1, 11)))
    bad = [r for r, entry in zip(range(1, 11), entries)
           if -entry != oracles.harmonic_second(r)]
    report(11, not bad,
           f"-N_r(1,3) equals the r-th partial sum of 1/k^2 for r=1..10, "
           f"exact; failures: {bad or 'none'}")


def test_criterion_12_unbalanced_growth():
    values = [abs(read_pairs(invert(build_unbalanced(r)))[0][2])
              for r in range(4, 11)]
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
        if read_z(oracles.multiply(a, b), 6) != \
                oracles.series_mul(read_z(a, 6), read_z(b, 6), 6):
            problems.append("homomorphism")
        if read_z(oracles.combine(a, 2, b, -3), 6) != [
                2 * x - 3 * y for x, y in zip(read_z(a, 6), read_z(b, 6))]:
            problems.append("linearity")

    powers = [oracles.tau_power(i) for i in range(5)]
    for i in range(1, 4):
        for j in range(1, 4):
            product = oracles.multiply(powers[i], powers[j])
            if filtration_order(product) < i + j:
                problems.append("filtration additivity")

    for i in range(1, 5):
        # the residue: the graded component at the filtration order
        order = filtration_order(powers[i])
        if order != i or read_z(powers[i], i)[i] != 1:
            problems.append("residue")

    round_trips = 0
    while round_trips < 5:
        # the lift solve on a random seed of filtration order one
        coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                  for _ in range(2)]
        seed = oracles.braid(dict(zip(rng.sample(range(-5, 6), 3),
                                      coeffs + [-sum(coeffs)])))
        if filtration_order(seed) != 1:
            continue
        round_trips += 1
        order = rng.randrange(3, 9)
        r = oracles.exact(oracles._lift_series(seed.nums, seed.den, order))
        if oracles.series_compose(
                r, oracles.integral(oracles.terms(seed), order)) \
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
