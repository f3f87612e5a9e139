"""Property tests for the integer kernels and the braid ring.

Braid sums store integer numerators over one reduced denominator, and every
kernel (combine, multiply, the lift solve and Z) works on them; each
property compares them with a Fraction-only route that never does.  Equality compares the stored integers, so the canonical form itself
is checked after each kernel.  The solve is checked on random seeds of filtration order
one against Lagrange inversion and composition of the seed's integral and
against stepwise strengthening, and the closed-form expansions at
q - q^-1 against the multiply loop on the arcsinh series.  The braid ring laws and the filtration
order are checked against the ring axioms and the synthetic-division
oracle, and the Lagrange-row moment-matrix inverse against Gauss-Jordan
elimination.  beta's digit count from the bit length is checked against
the printed integer, up to the 100,000-digit limit.  The JSON and CSV
renderers are checked against json.dumps and csv.writer on tables of
arbitrary text.
"""

import csv
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidinv import basis_solver, braid_ring
from braidinv.basis_solver import (MomentMatrix, build_balanced,
                                   build_unbalanced, entry_sequence, invert)
from braidinv.braid_ring import (BraidSum, combine, filtration_order,
                                 multiply, sigma_power, tau)
from braidinv.commands.beta import decimal_digits
from braidinv.inverse_engine import (_lift_series, closed_form_lift,
                                     solved_lift)
from braidinv.kontsevich import Z
from braidinv.pair_expansions import closed_form_expansion
from braidinv.render import render_csv, render_json

import oracles

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
nonzero = rationals.filter(bool)
braid_sums = st.dictionaries(st.integers(-7, 7), rationals, max_size=5)
Q_MINUS_1 = {1: Fraction(1), 0: Fraction(-1)}
node_sets = st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True)
# zeros, the empty sum and denominators far beyond one machine word
wide_sums = st.dictionaries(st.integers(-9, 9), st.one_of(
    st.just(Fraction(0)), rationals,
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40))), max_size=6)


@st.composite
def vanishing_sums(draw):
    """(q - 1)^k times a random sum, exponents in [-12, 12]: order k or more."""
    terms = draw(st.dictionaries(st.integers(-8, 8), rationals, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        terms = oracles.braid_mul(terms, Q_MINUS_1)
    return BraidSum(terms)


@st.composite
def order_one_seeds(draw):
    """2-5 terms with exponents in [-12, 12]: sum c_n = 0, sum c_n n != 0."""
    exponents = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=5,
                              unique=True))
    coeffs = draw(st.lists(nonzero, min_size=len(exponents) - 1,
                           max_size=len(exponents) - 1))
    terms = dict(zip(exponents, coeffs + [-sum(coeffs)]))
    assume(sum(n * c for n, c in terms.items()))
    return BraidSum(terms)


@given(order_one_seeds(), st.integers(1, 15))
def test_revert_is_the_compositional_inverse(seed, order):
    s = oracles.integral(seed.terms, order)
    r = _lift_series(seed, order)
    assert oracles.series_compose(r, s) == [0, 1] + [0] * (order - 1)
    assert oracles.series_compose(s, r) == [0, 1] + [0] * (order - 1)
    assert list(r) == oracles.lagrange_revert(s)


# the stepwise oracle rebuilds every power of the seed at every degree,
# up to 0.5 s an example at order 15, hence the smaller budget
@settings(max_examples=25)
@given(order_one_seeds(), st.integers(0, 7))
def test_strengthen_matches_the_stepwise_oracle_on_general_seeds(seed, k):
    order = 2 * k + 1
    assert _lift_series(seed, order) == \
        oracles.strengthen_stepwise(seed.terms, order)


def test_three_routes_agree_at_order_301():
    assert solved_lift(301) == oracles.arcsinh2_binomial(301) \
        == closed_form_lift(301)


@given(braid_sums, braid_sums, st.integers(0, 8))
def test_z_is_a_ring_homomorphism(a, b, order):
    a, b = BraidSum(a), BraidSum(b)
    assert list(Z(multiply(a, b), order)) == oracles.series_mul(
        Z(a, order), Z(b, order), order)
    assert list(Z(a, order)) == oracles.integral(a.terms, order)


def test_closed_form_matches_the_multiply_loop_through_order_201():
    # the arcsinh series at q - q^-1, one odd truncation after another: the
    # oracle's running sum adds P[r] (q - q^-1)^r by repeated multiplication,
    # and at the top it is braid_poly's sum itself
    P = closed_form_lift(201)
    running, power = {}, {0: Fraction(1)}
    for r in range(1, 202, 2):
        for _ in range(min(r, 2)):
            power = oracles.braid_mul(power, oracles.TAU)
        running = oracles.braid_lincomb(running, 1, power, P[r])
        b = closed_form_expansion(r)
        assert b.terms == running, r
        assert_canonical(b)
    assert running == oracles.braid_poly(dict(enumerate(P)), oracles.TAU)


def test_strengthen_matches_the_stepwise_oracle():
    for order in range(1, 22, 2):
        assert _lift_series(tau(), order) == \
            oracles.strengthen_stepwise(oracles.TAU, order)


@given(braid_sums, braid_sums, braid_sums, rationals, rationals)
def test_multiply_is_a_commutative_ring_product(a, b, c, x, y):
    a, b, c = BraidSum(a), BraidSum(b), BraidSum(c)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, b) == multiply(b, a)
    assert multiply(a, combine(b, x, c, y)) == \
        combine(multiply(a, b), x, multiply(a, c), y)
    assert multiply(a, sigma_power(0)) == a


def assert_canonical(b):
    assert b.den > 0
    assert math.gcd(b.den, *b.nums.values()) == 1
    assert all(b.nums.values())


@given(wide_sums, wide_sums, rationals, rationals)
def test_kernels_return_the_canonical_form(a, b, x, y):
    sum_oracle = oracles.braid_lincomb(a, x, b, y)
    product_oracle = oracles.braid_mul(a, b)
    A, B = BraidSum(a), BraidSum(b)
    for got, want in ((A, {n: c for n, c in a.items() if c}),
                      (combine(A, x, B, y), sum_oracle),
                      (multiply(A, B), product_oracle)):
        assert_canonical(got)
        assert got.terms == want
    # one sum built from the rationals and by a kernel compares equal
    assert combine(A, x, B, y) == BraidSum(sum_oracle) == \
        combine(B, y, A, x)
    assert multiply(A, B) == BraidSum(product_oracle) == multiply(B, A)


@given(vanishing_sums())
def test_filtration_order_is_the_root_multiplicity_at_one(b):
    assert filtration_order(b) == oracles.root_multiplicity_at_one(b.terms)


@given(vanishing_sums().filter(bool), vanishing_sums().filter(bool))
def test_filtration_order_adds_under_product(a, b):
    assert filtration_order(multiply(a, b)) == \
        filtration_order(a) + filtration_order(b)


def test_filtration_order_reports_disagreeing_routes(monkeypatch):
    monkeypatch.setattr(braid_ring, "_derivative_order", lambda b: 2)
    with pytest.raises(ArithmeticError, match="order routes disagree"):
        filtration_order(tau())


@given(node_sets, st.booleans())
def test_invert_matches_gauss_jordan(nodes, with_factorials):
    rows = [[Fraction(n ** i, math.factorial(i) if with_factorials else 1)
             for n in nodes] for i in range(len(nodes))]
    M = MomentMatrix(nodes, with_factorials)
    assert M.rows == rows
    assert invert(M) == oracles.gauss_inverse(rows)


@given(node_sets, st.data())
def test_moment_matrix_rejects_repeated_nodes(nodes, data):
    repeat = data.draw(st.sampled_from(nodes))
    at = data.draw(st.integers(0, len(nodes)))
    with pytest.raises(ValueError, match="distinct"):
        MomentMatrix(nodes[:at] + [repeat] + nodes[at:])


def test_invert_reports_any_corrupted_entry(monkeypatch):
    lagrange_rows = basis_solver._lagrange_rows
    # balanced nodes are symmetric, unbalanced ones are not; with factorials
    # the certificate first divides each printed column by its scale
    for M in (build_balanced(2), build_unbalanced(3),
              build_balanced(2, with_factorials=True)):
        for k in range(M.dim):
            for i in range(M.dim):
                def corrupted(nodes, w, scale, ks, k=k, i=i):
                    rows = lagrange_rows(nodes, w, scale, ks)
                    rows[k][i] += Fraction(1, 10 ** 9)
                    return rows
                monkeypatch.setattr(basis_solver, "_lagrange_rows", corrupted)
                with pytest.raises(ArithmeticError,
                                   match="inverse failed its own verification"):
                    invert(M)

    # adding x(x-1)(x-2) = 2x - 3x^2 + x^3 keeps row 0 right at the nodes
    # 0, 1 and 2, so only the check at -1 and -2 can see it
    def mirrored(nodes, w, scale, ks):
        rows = lagrange_rows(nodes, w, scale, ks)
        for i, c in enumerate((0, 2, -3, 1)):
            rows[0][i] += Fraction(c, 10 ** 9)
        return rows

    # a multiple of a Lagrange row times (x - n_k) is still a multiple of w,
    # so only the row's value at its own node can show it
    def scaled(nodes, w, scale, ks):
        return [[x * Fraction(10 ** 9 + 1, 10 ** 9) for x in row]
                for row in lagrange_rows(nodes, w, scale, ks)]
    for fault in (mirrored, scaled):
        monkeypatch.setattr(basis_solver, "_lagrange_rows", fault)
        for compute in (lambda: invert(build_balanced(2)),
                        lambda: entry_sequence(1, 3, [2])):
            with pytest.raises(ArithmeticError,
                               match="inverse failed its own verification"):
                compute()


def test_wrong_node_polynomial_fails_verification(monkeypatch):
    # the certificate rests on w = prod (x - n_j); a w with one coefficient
    # off, or with one node missing, must stop invert and entry_sequence.
    # w + x^2 leaves the row of node 0 a Lagrange-like row that is 1 at 0,
    # so only the check that w vanishes at every node sees it there
    node_polynomial = basis_solver._node_polynomial

    def coefficient_off(nodes):
        w = node_polynomial(nodes)
        w[2] += 1
        return w

    def node_missing(nodes):
        return node_polynomial(nodes[:-1])
    for wrong in (coefficient_off, node_missing):
        monkeypatch.setattr(basis_solver, "_node_polynomial", wrong)
        for compute in (lambda: invert(build_balanced(2)),
                        lambda: invert(build_unbalanced(3, True)),
                        lambda: entry_sequence(1, 3, [2]),
                        lambda: entry_sequence(5, 1, [2, 3])):
            with pytest.raises(ArithmeticError,
                               match="inverse failed its own verification"):
                compute()


def test_entry_sequence_reports_any_corrupted_row(monkeypatch):
    # entry_sequence and invert share the synthetic division; a fault in it
    # must stop both, though entry_sequence checks only the row it reads
    lagrange_row = basis_solver._lagrange_row
    for r in (1, 2):
        dim = 2 * r + 1
        for row in range(1, dim + 1):
            for i in range(dim):
                def corrupted(w, a, i=i):
                    q = lagrange_row(w, a)
                    q[i] += 1
                    return q
                monkeypatch.setattr(basis_solver, "_lagrange_row", corrupted)
                for col in (1, dim):
                    with pytest.raises(ArithmeticError,
                                       match="inverse failed its own "
                                             "verification"):
                        entry_sequence(row, col, [r])
                with pytest.raises(ArithmeticError):
                    invert(build_balanced(r))

    # added to row 1, the row of node 0: x(x-1)(x-2) = 2x - 3x^2 + x^3
    # vanishes at 0, 1 and 2, so only the checks at -1 and -2 can see it
    # (the mirrored fault), and x^3 - x only the checks at 2 and -2
    for fault in ((0, 2, -3, 1), (0, -1, 0, 1)):
        def planted(w, a, fault=fault):
            q = lagrange_row(w, a)
            for i, c in enumerate(fault):
                q[i] += c
            return q
        monkeypatch.setattr(basis_solver, "_lagrange_row", planted)
        for col in (1, 3):
            with pytest.raises(ArithmeticError,
                               match="inverse failed its own verification"):
                entry_sequence(1, col, [2])


def printed_digits(n):
    """len(str(n)), past Python's int-to-str guard where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return len(str(n))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_decimal_digits_at_powers_of_ten():
    # a 5-digit log10(2) is one off at 10^4004; 10^100000 is the CLI's limit
    for k in [*range(700), 3010, 4004, 9999, 30103, 99999, 100000]:
        for n in (10 ** k - 1, 10 ** k, 10 ** k + 1):
            if n:
                assert decimal_digits(n) == printed_digits(n), (k, n)


def test_decimal_digits_at_powers_of_two():
    for b in [*range(1, 2400), 13302, 33220, 332192, 332193]:
        for n in (2 ** (b - 1), 2 ** b - 1):
            assert decimal_digits(n) == printed_digits(n), b


# random bit lengths up to 100,000 digits (332,193 bits)
@settings(max_examples=25)
@given(st.integers(1, 332193), st.randoms(use_true_random=False))
def test_decimal_digits_at_random_sizes(b, rng):
    n = rng.getrandbits(b) | 1 << (b - 1)
    assert decimal_digits(n) == printed_digits(n)


# text the renderers must escape or quote, among arbitrary code points
cells = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", ",", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028",
     "\U0001f600"])), max_size=6)
tables = st.lists(st.tuples(
    cells, st.lists(cells, max_size=3),
    st.lists(st.one_of(st.lists(cells, max_size=3), st.just([""])),
             max_size=4),
    st.lists(cells, max_size=2)), max_size=3)


@given(tables)
def test_render_json_writes_json_dumps(document):
    payload = {"tables": [{"title": title, "columns": columns, "rows": rows,
                           "notes": notes}
                          for title, columns, rows, notes in document]}
    assert render_json(document) == json.dumps(payload, indent=2) + "\n"


@given(tables)
def test_render_csv_writes_csv_writer(document):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, (title, columns, rows, notes) in enumerate(document):
        if index:
            writer.writerow([])
        writer.writerow(["table", title])
        writer.writerow(columns)
        writer.writerows(rows)
        writer.writerows(["note", note] for note in notes)
    assert render_csv(document) == out.getvalue()
