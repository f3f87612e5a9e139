"""Property tests for the integer kernels and the braid ring.

Braid sums store integer numerators over one reduced denominator, and every
kernel (the constructor, the lift solve and Z, and the reference product
oracles.multiply) works on them; each property compares them with a
Fraction-only route that never does.  oracles.same compares the stored
integers, so the canonical form itself is checked after each kernel: the
constructor's on any common multiple of numerators and denominator, and
the JSON reader's on int, decimal and "p/q" coefficients; the reader of
decimal and "p/q" texts is checked against Fraction(str), value or
message, on short ASCII texts and JSON float texts, and the JSON reader
against json.loads with the same hooks on texts near JSON documents.  The
solve is checked on random seeds of filtration order one against Lagrange
inversion and composition of the seed's integral and against stepwise
strengthening, its (numerator, denominator) pairs checked to be in lowest
terms, and the closed-form expansions at q - q^-1 against the multiply
loop on the arcsinh series.  The lift of q - q^-1 is checked against both
references of tests/oracles.py through order 1201, and its certificate
must refuse one fault planted in it at a time; so must the expansions'
certificate, in any order of a batch, with the same verdict as their
moments.  The product of pair sums
and the powers of the expansions are checked against the reference
product, read back as a pair sum.  The braid ring laws and the reference
filtration order are checked against the ring axioms and the
synthetic-division oracle;
condition (c), read from each item's prefixes, against that order taken
on every difference sum of a window, and against a faulty integral or
derivative stream planted in it; the whole trace report, whose (a) and
(b) classify integer numerators over a common denominator, against
oracles.classify on the Fraction values; and the Lagrange-row
moment-matrix inverse, read as Fractions from its reduced integer pairs, against
Gauss-Jordan elimination on any node set and on symmetric ones; a wrong
sign planted in the mirrored rows must stop it.
beta's digit count from the bit length is checked against the printed
integer, up to the 100,000-digit limit.  The JSON and CSV
renderers are checked against json.dumps and csv.writer on tables of
arbitrary text, with rows of plain ASCII cells that JSON writes with one
join among them, the printers of integer pairs and of braid sums
against str of a Fraction, and pairs put over one denominator against
their Fractions and the least common denominator.
"""

import csv
import decimal
import io
import json
import math
import sys
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from braidinv import (basis_solver, cli, convergence, inverse_engine,
                      pair_expansions, sequences)
from braidinv.basis_solver import (MomentMatrix, build_balanced,
                                   build_unbalanced, entry_sequence, invert)
from braidinv.braid_ring import BraidSum, render, sigma_power, tau
from braidinv.commands.beta import decimal_digits
from braidinv.commands.trace import STOCK_SEQUENCES
from braidinv.convergence import biconvergence_report, filtration_condition_c
from braidinv.inputs import _Number, _exact_decimal, exponent_map, read_json
from braidinv.inverse_engine import closed_form_lift, solved_lift
from braidinv.pair_expansions import (PairSum, closed_form_expansion,
                                      tau_expansions, times)
from braidinv.render import (common_denominator, rational, render_csv,
                             render_json)

import oracles
from oracles import braid, combine, filtration_order, read_pairs, read_z

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
nonzero = rationals.filter(bool)
braid_sums = st.dictionaries(st.integers(-7, 7), rationals, max_size=5)
nonzero_integers = st.integers(-9, 9).filter(bool)
Q_MINUS_1 = {1: Fraction(1), 0: Fraction(-1)}
node_sets = st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True)
# 0 and +-S, in the balanced order 0, s, -s, ... or shuffled: the node sets
# whose inverse forms half its rows as mirrors of the others
symmetric_node_sets = st.lists(st.integers(1, 20), max_size=4, unique=True) \
    .map(lambda S: [0] + [n for s in S for n in (s, -s)]) \
    .flatmap(lambda nodes: st.one_of(st.just(nodes), st.permutations(nodes)))
# zeros, the empty sum and denominators far beyond one machine word
wide_sums = st.dictionaries(st.integers(-9, 9), st.one_of(
    st.just(Fraction(0)), rationals,
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40))), max_size=6)


@st.composite
def pair_sums(draw):
    """A nonzero pair sum of either sign, a symmetric one with or without
    a q^0 term."""
    sign = draw(st.sampled_from((-1, 1)))
    half = draw(st.dictionaries(st.integers(1, 9), nonzero_integers,
                                min_size=1, max_size=5))
    zero = draw(st.integers(-9, 9)) if sign > 0 else 0
    return PairSum(half, zero, draw(st.integers(1, 12)), sign)


@st.composite
def vanishing_sums(draw):
    """(q - 1)^k times a random sum, exponents in [-12, 12]: order k or more."""
    terms = draw(st.dictionaries(st.integers(-8, 8), rationals, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        terms = oracles.braid_mul(terms, Q_MINUS_1)
    return braid(terms)


@st.composite
def order_one_seeds(draw):
    """2-5 terms with exponents in [-12, 12]: sum c_n = 0, sum c_n n != 0."""
    exponents = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=5,
                              unique=True))
    coeffs = draw(st.lists(nonzero, min_size=len(exponents) - 1,
                           max_size=len(exponents) - 1))
    terms = dict(zip(exponents, coeffs + [-sum(coeffs)]))
    assume(sum(n * c for n, c in terms.items()))
    return braid(terms)


def assert_reduced(P):
    """Every (numerator, denominator) pair of a lift in lowest terms over a
    positive denominator, so that equal tuples are equal values."""
    assert all(den > 0 and math.gcd(num, den) == 1 for num, den in P)


@given(order_one_seeds(), st.integers(1, 15))
def test_revert_is_the_compositional_inverse(seed, order):
    s = oracles.integral(oracles.terms(seed), order)
    P = oracles._lift_series(seed.nums, seed.den, order)
    assert_reduced(P)
    r = oracles.exact(P)
    assert oracles.series_compose(r, s) == [0, 1] + [0] * (order - 1)
    assert oracles.series_compose(s, r) == [0, 1] + [0] * (order - 1)
    assert list(r) == oracles.lagrange_revert(s)


# the stepwise oracle rebuilds every power of the seed at every degree,
# up to 0.5 s an example at order 15, hence the smaller budget
@settings(max_examples=25)
@given(order_one_seeds(), st.integers(0, 7))
def test_strengthen_matches_the_stepwise_oracle_on_general_seeds(seed, k):
    order = 2 * k + 1
    assert oracles.exact(oracles._lift_series(seed.nums, seed.den,
                                              order)) == \
        oracles.strengthen_stepwise(oracles.terms(seed), order)


def test_three_routes_agree_at_order_301():
    P = closed_form_lift(301)
    assert_reduced(P)
    assert solved_lift(301) == P
    assert oracles.exact(P) == oracles.arcsinh2_binomial(301)


def test_the_builder_is_both_references_through_order_1201():
    # and the certificate passes every odd truncation
    recurrence = oracles._recurrence_lift(1201)
    assert oracles.factorial_lift(1201) == recurrence
    for order in range(1, 1202, 2):
        assert closed_form_lift(order) == solved_lift(order) \
            == recurrence[:order + 1]


# one fault at an odd degree: the numerator off, both fields times 3, a
# nonzero cell at the even degree below, or the pair swapped with another
FAULTS = (-2, -1, 1, 2, "times 3", "even cell", "swap")


@settings(max_examples=400)
@given(st.integers(0, 150), st.sampled_from(FAULTS), st.data())
def test_a_fault_planted_in_the_lift_fails_its_certificate(k, fault, data):
    order = 2 * k + 1
    P = list(closed_form_lift(order))
    n = 2 * data.draw(st.integers(0, k)) + 1
    num, den = P[n]
    if fault == "swap":
        assume(k > 0)
        m = 2 * data.draw(st.integers(0, k - 1)) + 1
        m += 2 * (m >= n)
        P[n], P[m] = P[m], P[n]
    elif fault == "even cell":
        P[n - 1] = (data.draw(nonzero_integers), data.draw(st.integers(1, 9)))
    elif fault == "times 3":
        P[n] = (3 * num, 3 * den)
    else:
        P[n] = (num + fault, den)
    with mock.patch.object(inverse_engine, "closed_form_lift",
                           lambda order: tuple(P)):
        with pytest.raises(ArithmeticError):
            solved_lift(order)


@given(braid_sums, braid_sums, st.integers(0, 8))
def test_z_is_a_ring_homomorphism(a, b, order):
    a, b = braid(a), braid(b)
    assert read_z(oracles.multiply(a, b), order) == oracles.series_mul(
        read_z(a, order), read_z(b, order), order)
    assert read_z(a, order) == oracles.integral(oracles.terms(a), order)


def test_closed_form_matches_the_multiply_loop_through_order_201():
    # the arcsinh series at q - q^-1, one odd truncation after another: the
    # oracle's running sum adds P[r] (q - q^-1)^r by repeated multiplication,
    # and at the top it is braid_poly's sum itself
    P = oracles.exact(closed_form_lift(201))
    running, power = {}, {0: Fraction(1)}
    for r in range(1, 202, 2):
        for _ in range(min(r, 2)):
            power = oracles.braid_mul(power, oracles.TAU)
        running = oracles.braid_lincomb(running, 1, power, P[r])
        b = closed_form_expansion(r)
        assert oracles.exact(b) == running, r
        assert b.den > 0 and b.sign == -1 and b.zero == 0
        assert math.gcd(b.den, *b.half.values()) == 1
    assert running == oracles.braid_poly(dict(enumerate(P)), oracles.TAU)


# one fault in an expansion's cells: a numerator off, a cell dropped, a
# cell at the even exponent above, the cell swapped with a neighbour, or
# every numerator times 3
EXPANSION_FAULTS = (-2, -1, 1, 2, "drop", "even cell", "swap", "times 3")


@settings(max_examples=400)
@given(st.integers(0, 150), st.sampled_from((None, *EXPANSION_FAULTS)),
       st.data())
def test_a_fault_planted_in_an_expansion_fails_its_certificate(k, fault,
                                                               data):
    # the theta^2 certificate refuses exactly what the moment reference
    # refuses: every fault, and none of the unfaulted expansions
    order = 2 * k + 1
    b = closed_form_expansion(order)
    half = dict(b.half)
    x = 2 * data.draw(st.integers(0, k)) + 1
    if fault == "swap":
        assume(k > 0)
        y = x + 2 if x < order else x - 2
        half[x], half[y] = half[y], half[x]
    elif fault == "drop":
        del half[x]
    elif fault == "even cell":
        half[x + 1] = data.draw(nonzero_integers)
    elif fault == "times 3":
        half = {n: 3 * c for n, c in half.items()}
    elif fault is not None:
        half[x] += fault
    planted = PairSum(half, 0, b.den, -1)
    assert oracles.moments_flat(planted, order) == (fault is None)
    with mock.patch.object(pair_expansions, "closed_form_expansion",
                           lambda order: planted):
        if fault is None:
            assert tau_expansions([order]) == [planted]
        else:
            with pytest.raises(ArithmeticError):
                tau_expansions([order])


def test_a_fault_in_a_lower_order_of_a_batch_fails_its_certificate():
    # order 5's q^3 numerator off by one, -124 over 1920 for -125: the top
    # order of the batch is sound, so a certificate of the top alone, by
    # moments or by theta^2, passes the batch
    def planted(order):
        b = closed_form_expansion(order)
        return PairSum({**b.half, 3: b.half[3] + 1}, 0, b.den, -1) \
            if order == 5 else b

    assert (planted(5).half[3], planted(5).den) == (-124, 1920)
    assert not oracles.moments_flat(planted(5), 5)
    assert oracles.moments_flat(planted(21), 21)
    with mock.patch.object(pair_expansions, "closed_form_expansion",
                           planted):
        with pytest.raises(ArithmeticError,
                           match="not flat through order 5 at power 1"):
            tau_expansions([5, 21])


def as_braid_sum(b):
    """A pair sum as a BraidSum, built from its terms as Fractions."""
    return braid(oracles.exact(b))


def fields(b):
    return b.half, b.zero, b.den, b.sign


@given(pair_sums(), pair_sums())
def test_times_is_the_reference_product(a, b):
    product = oracles.multiply(as_braid_sum(a), as_braid_sum(b))
    assert fields(times(a, b)) == oracles.pair_fields(product)


@given(st.integers(0, 30), st.integers(1, 6))
@example(30, 6)
def test_powers_are_the_reference_products_through_order_61(k, power):
    r = 2 * k + 1
    [b] = tau_expansions([r], power)
    product = factor = as_braid_sum(closed_form_expansion(r))
    for _ in range(power - 1):
        product = oracles.multiply(product, factor)
    assert fields(b) == oracles.pair_fields(product)


def test_strengthen_matches_the_stepwise_oracle():
    for order in range(1, 22, 2):
        assert oracles.exact(solved_lift(order)) \
            == oracles.strengthen_stepwise(oracles.TAU, order)


@given(braid_sums, braid_sums, braid_sums, rationals, rationals)
def test_multiply_is_a_commutative_ring_product(a, b, c, x, y):
    a, b, c = braid(a), braid(b), braid(c)
    multiply, same = oracles.multiply, oracles.same
    assert same(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))
    assert same(multiply(a, b), multiply(b, a))
    assert same(multiply(a, combine(b, x, c, y)),
                combine(multiply(a, b), x, multiply(a, c), y))
    assert same(multiply(a, sigma_power(0)), a)


def assert_canonical(b):
    assert b.den > 0
    assert math.gcd(b.den, *b.nums.values()) == 1
    assert all(b.nums.values())


@given(wide_sums, wide_sums, rationals, rationals)
def test_kernels_return_the_canonical_form(a, b, x, y):
    sum_oracle = oracles.braid_lincomb(a, x, b, y)
    product_oracle = oracles.braid_mul(a, b)
    A, B = braid(a), braid(b)
    for got, want in ((A, {n: c for n, c in a.items() if c}),
                      (combine(A, x, B, y), sum_oracle),
                      (oracles.multiply(A, B), product_oracle)):
        assert_canonical(got)
        assert oracles.terms(got) == want
    # one sum built from the rationals and by a kernel compares equal
    assert oracles.same(combine(A, x, B, y), braid(sum_oracle),
                        combine(B, y, A, x))
    assert oracles.same(oracles.multiply(A, B), braid(product_oracle),
                        oracles.multiply(B, A))


@given(st.dictionaries(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30),
                       max_size=6),
       st.integers(1, 10 ** 30), st.integers(1, 10 ** 12))
def test_constructor_reduces_every_multiple_to_one_form(nums, den, k):
    # the constructor's form is the oracle's: the nonzero numerators over
    # the least common denominator of the rationals nums[n] / den
    plain = BraidSum(nums, den)
    scaled = BraidSum({n: k * c for n, c in nums.items()}, k * den)
    want = oracles.fields({n: Fraction(c, den) for n, c in nums.items()})
    assert (plain.nums, plain.den) == (scaled.nums, scaled.den) == want
    assert_canonical(plain)


@given(wide_sums)
def test_render_is_str_of_each_fraction(terms):
    want = " + ".join(f"{c}*q^{n}" for n, c in sorted(terms.items(),
                                                      reverse=True) if c)
    assert render(braid(terms)) == (want or "0")


# JSON coefficients as their text and their value: integers, decimals with
# an exponent, and "p/q" strings, neither side reduced
json_coefficients = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(lambda n: (str(n), Fraction(n))),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 4),
              st.integers(-30, 30)).map(
        lambda t: (f"{t[0]}.{t[1]:04d}e{t[2]}",
                   Fraction(decimal.Decimal(f"{t[0]}.{t[1]:04d}e{t[2]}")))),
    st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20)).map(
        lambda t: (f'"{t[0]}/{t[1]}"', Fraction(*t))))


@given(st.dictionaries(st.integers(-10 ** 6, 10 ** 6), json_coefficients,
                       max_size=6))
def test_exponent_map_is_the_common_denominator_of_its_values(entries):
    text = "{" + ", ".join(f'"{n}": {v}' for n, (v, _) in entries.items()) \
        + "}"
    b = exponent_map(read_json(text))
    assert (b.nums, b.den) == \
        oracles.fields({n: x for n, (_, x) in entries.items()})


# short ASCII texts over the reader's alphabet: digits, signs, the point,
# the slash, e, E and other letters; seven characters keep every exponent
# under the INT_STR_DIGITS guard, which Fraction does not have.  d and D
# are left out: after the point Python 3.11 and 3.12 match them and fail
# in int(), 3.10 and 3.13 do not, and the reader refuses them as 3.10 and
# 3.13 do
reader_texts = st.text(alphabet="0123456789+-./eExXnNIa", max_size=7)
# JSON number texts with a point or an exponent, as parse_float gets them
json_float_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 4),
              st.integers(-30, 30)).map(lambda t: f"{t[0]}.{t[1]}E{t[2]}"))


def outcome(read, text):
    """("value", the Fraction) or (exception type, message) of read(text);
    a pair must be reduced, as Fraction's own fields are."""
    try:
        value = read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return "value", read_pairs(value) if isinstance(value, tuple) else value


@given(st.one_of(reader_texts, json_float_texts))
@example("NaN")
@example("Infinity")
@example("-Infinity")
@example("1/0")
@example("-3/00")
@example("-.5E+2")
@example("1e100000")
@example("1E-0000100000")
def test_the_reader_is_fraction_of_str(text):
    assert outcome(_exact_decimal, text) == outcome(Fraction, text)


def test_the_reader_refuses_first_an_exponent_past_the_limit():
    past = (ValueError, f"decimal exponent beyond {cli.INT_STR_DIGITS} in "
                        f"size")
    for text in ("1e100001", "-1E-100001", "1e+000000000100001",
                 "0x1e9999999", "NaNe100001"):
        assert outcome(_exact_decimal, text) == past, text
    assert outcome(_exact_decimal, "1.d") == \
        (ValueError, "Invalid literal for Fraction: '1.d'")
    assert outcome(_exact_decimal, "-2.DE7") == \
        (ValueError, "Invalid literal for Fraction: '-2.DE7'")


# JSON documents, and texts near them: cut short, one character changed or
# put in, padded with whitespace that json skips or does not, or behind
# one or two byte order marks
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10)
JSON_CHARACTERS = (" \t\n\r\x0b\x0c\x00\x1f\x7f\u00a0\u2028\ufeff"
                   '"\\{}[],:.-+eE01NIx')


@st.composite
def json_texts(draw):
    text = json.dumps(draw(json_values), ensure_ascii=draw(st.booleans()))
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(JSON_CHARACTERS))
    pad = st.text(alphabet=" \t\n\r\x0b\u00a0", max_size=3)
    return draw(st.sampled_from([
        text, text[:at], text[:at] + char + text[at + 1:],
        text[:at] + char + text[at:], draw(pad) + text + draw(pad),
        "\ufeff" + text, "\ufeff\ufeff" + text]))


@given(json_texts())
@example("")
@example(" \r\n")
@example('{"1": 1} x')
@example('{"1": "a\rb"}')
@example('{"1": [1, 2.5e-3, NaN]}')
@example("\ufeff[]")
@example('{"1": 1,}')
def test_the_json_reader_is_json_loads(text):
    def outcome(read):
        """The value and the type of each of its parts, or the exception's
        type and message."""
        try:
            value = read(text)
        except Exception as exc:
            return type(exc), str(exc)
        return value, shape(value)

    def shape(value):
        return type(value), [shape(part) for part in value] \
            if isinstance(value, (list, tuple)) else []

    # the hooks written out again, not read from the module under test
    assert outcome(read_json) == outcome(lambda t: json.loads(
        t, parse_float=lambda x: _Number(_exact_decimal(x)),
        parse_constant=_exact_decimal, object_pairs_hook=tuple))


@given(vanishing_sums())
def test_filtration_order_is_the_root_multiplicity_at_one(b):
    assert filtration_order(b) == \
        oracles.root_multiplicity_at_one(oracles.terms(b))


@given(vanishing_sums().filter(bool), vanishing_sums().filter(bool))
def test_filtration_order_adds_under_product(a, b):
    assert filtration_order(oracles.multiply(a, b)) == \
        filtration_order(a) + filtration_order(b)


def pairwise_condition_c(items):
    """The violations of condition (c), each difference b_i - b_j built and
    its order taken by both reference routes."""
    violations = []
    for i, a in enumerate(items, 1):
        for j, b in enumerate(items[i:], i + 1):
            order = filtration_order(combine(a, 1, b, -1))
            if order < i:
                violations.append((i, j, order))
    return violations


far_sums = st.dictionaries(
    st.one_of(st.integers(-7, 7), st.integers(-10 ** 18, 10 ** 18)),
    rationals, max_size=4)


@st.composite
def windows(draw):
    """2-9 items, each one base plus a sum of some filtration order or of
    any terms, so that pairs agree to various depths: repeated items, the
    empty sum, mixed denominators and exponents up to +-10^18."""
    base = braid(draw(far_sums))
    offsets = draw(st.lists(st.one_of(vanishing_sums(), far_sums.map(braid)),
                            min_size=1, max_size=8))
    pool = [BraidSum({})] + [combine(base, 1, v, 1) for v in offsets]
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=9))


@settings(max_examples=300)
@given(windows())
def test_condition_c_is_the_pairwise_reference(items):
    assert filtration_condition_c(items) == pairwise_condition_c(items)


def test_condition_c_is_the_pairwise_reference_on_stock_sequences():
    # a trace's window of W items is the first W items of the sequence, and
    # its violations are those of the 30-item window with j <= W
    for _, builder in STOCK_SEQUENCES.values():
        items = getattr(sequences, builder)(30)
        reference = pairwise_condition_c(items)
        for window in range(2, 31):
            assert filtration_condition_c(items[:window]) == \
                [v for v in reference if v[1] <= window]


RATIOS = (Fraction(1), Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2),
          Fraction(-2))


@st.composite
def traced_windows(draw):
    """5-10 items over exponents in [-3, 3], each exponent's coefficients
    random rationals (zeros, both signs, unequal denominators), a constant
    or the partial sums of a geometric series from an early item on, so
    that traces stay constant, converge, diverge and wobble."""
    size = draw(st.integers(5, 10))
    columns = {}
    for n in draw(st.lists(st.integers(-3, 3), unique=True, max_size=4)):
        kind = draw(st.sampled_from(("random", "constant", "geometric")))
        if kind == "random":
            columns[n] = draw(st.lists(rationals, min_size=size,
                                       max_size=size))
        elif kind == "constant":
            columns[n] = [draw(rationals)] * size
        else:
            c, ratio = draw(nonzero), draw(st.sampled_from(RATIOS))
            start = draw(st.integers(0, size // 2 - 2))
            columns[n] = [c * (1 - ratio ** max(i - start, 0))
                          for i in range(size)]
    return [braid({n: column[i] for n, column in columns.items()})
            for i in range(size)]


def fraction_report(items, jmax):
    """(a), (b) and (c) from the items' terms as Fractions: oracles.classify
    on every coefficient and integral trace, and condition (c) on every
    difference sum."""
    maturity = max(3, len(items) // 2 + 2)
    terms = [oracles.terms(b) for b in items]
    integrals = [oracles.integral(t, jmax) for t in terms]
    return ({n: oracles.classify([t.get(n, 0) for t in terms], maturity)
             for n in {n for t in terms for n in t}},
            {j: oracles.classify([z[j] for z in integrals], maturity)
             for j in range(jmax + 1)},
            pairwise_condition_c(items))


@settings(max_examples=300)
@given(st.one_of(traced_windows(), windows()), st.integers(0, 6))
def test_the_report_is_the_fraction_report(items, jmax):
    assert biconvergence_report(items, jmax) == fraction_report(items, jmax)


def integral_missing_n(b):
    # coefficient 1 and on lack the factor n that takes moment 0 to moment 1
    exponents, weights = list(b.nums), list(b.nums.values())
    for k in count():
        yield Fraction(sum(weights), b.den * 2 ** k *
                       math.factorial(k)).as_integer_ratio()
        if k:
            weights = [w * n for w, n in zip(weights, exponents)]


def derivatives_missing_n(b):
    # derivative 1 and on lack the factor n - 0 of the first derivative
    exponents, weights = list(b.nums), list(b.nums.values())
    for k in count():
        yield sum(weights)
        if k:
            weights = [w * (n - k) for w, n in zip(weights, exponents)]


@pytest.mark.parametrize("route, faulty", [
    ("integral", integral_missing_n), ("derivatives", derivatives_missing_n)],
    ids=["integral", "derivatives"])
def test_a_faulty_order_route_stops_the_trace(monkeypatch, route, faulty):
    monkeypatch.setattr(convergence, route, faulty)
    with pytest.raises(ArithmeticError, match="order routes disagree"):
        cli.main(["trace", "--sequence", "pairs", "--window", "6"])


@given(st.one_of(node_sets, symmetric_node_sets), st.booleans())
@example([0, 1, -1, 2, -2], False)
@example([-3, 0, 3, -1, 1], True)
def test_invert_matches_gauss_jordan(nodes, with_factorials):
    rows = [[Fraction(n ** i, math.factorial(i) if with_factorials else 1)
             for n in nodes] for i in range(len(nodes))]
    M = MomentMatrix(nodes, with_factorials)
    assert read_pairs(M.rows) == rows
    assert read_pairs(invert(M)) == oracles.gauss_inverse(rows)


@given(node_sets, st.data())
def test_moment_matrix_rejects_repeated_nodes(nodes, data):
    repeat = data.draw(st.sampled_from(nodes))
    at = data.draw(st.integers(0, len(nodes)))
    with pytest.raises(ValueError, match="distinct"):
        MomentMatrix(nodes[:at] + [repeat] + nodes[at:])


def shifted(pair, delta):
    """The reduced pair of pair + delta."""
    x = Fraction(*pair) + delta
    return x.numerator, x.denominator


def test_invert_reports_any_corrupted_entry(monkeypatch):
    lagrange_rows = basis_solver._lagrange_rows
    # balanced nodes are symmetric, so the rows of -1 and -2 are mirrors,
    # unbalanced ones are not; with factorials the certificate first
    # divides each printed column by its scale
    for M in (build_balanced(2), build_unbalanced(3),
              build_balanced(2, with_factorials=True)):
        for k in range(M.dim):
            for i in range(M.dim):
                def corrupted(nodes, w, scale, ks, k=k, i=i):
                    rows = lagrange_rows(nodes, w, scale, ks)
                    rows[k][i] = shifted(rows[k][i], Fraction(1, 10 ** 9))
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
            rows[0][i] = shifted(rows[0][i], Fraction(c, 10 ** 9))
        return rows

    # a multiple of a Lagrange row times (x - n_k) is still a multiple of w,
    # so only the row's value at its own node can show it
    def scaled(nodes, w, scale, ks):
        return [[shifted(x, Fraction(*x) / 10 ** 9) for x in row]
                for row in lagrange_rows(nodes, w, scale, ks)]
    for fault in (mirrored, scaled):
        monkeypatch.setattr(basis_solver, "_lagrange_rows", fault)
        for compute in (lambda: invert(build_balanced(2)),
                        lambda: entry_sequence(1, 3, [2])):
            with pytest.raises(ArithmeticError,
                               match="inverse failed its own verification"):
                compute()


@pytest.mark.parametrize("fault", [
    # -L_-a: the row is -1 at its own node
    lambda row: [(-num, den) if j % 2 == 0 else (num, den)
                 for j, (num, den) in enumerate(row)],
    # L_a: the row is 0 at its own node
    lambda row: list(row)], ids=["even-columns-negated", "sign-not-flipped"])
def test_invert_refuses_a_wrong_mirror(monkeypatch, fault):
    # each mirrored row is certified like a divided one, in any node order
    monkeypatch.setattr(basis_solver, "_mirror", fault)
    for M in (build_balanced(1), build_balanced(3, with_factorials=True),
              MomentMatrix([-2, 5, 0, 2, -5])):
        with pytest.raises(ArithmeticError,
                           match="inverse failed its own verification"):
            invert(M)


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
# printable ASCII but the quote and the backslash, which JSON writes as it
# is: a list of these alone is written with one join, and a list with one
# escaped cell among them cell by cell
plain_cells = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                    exclude_characters='"\\'), max_size=6)
plain_lists = st.lists(plain_cells, max_size=4)
escaped_cells = st.builds("{}{}{}".format, plain_cells, st.sampled_from(
    ['"', "\\", "\n", "\x7f", "\xe9", "\U0001f600"]), plain_cells)
cell_lists = st.one_of(
    st.lists(cells, max_size=3), plain_lists,
    st.builds(lambda head, cell, tail: head + [cell] + tail,
              plain_lists, escaped_cells, plain_lists),
    st.just([]), st.just([""]))
tables = st.lists(st.tuples(
    cells, cell_lists, st.lists(cell_lists, max_size=4), cell_lists),
    max_size=3)


# integers past 4,000 digits, and a common factor that leaves them unreduced
huge = st.integers(-10 ** 4000, 10 ** 4000)


@given(huge, huge.filter(bool), st.integers(1, 10 ** 40))
@example(0, -7, 1)
@example(6, -4, 3)
@example(-10 ** 4000, 10 ** 4000 - 1, 10 ** 40)
def test_rational_prints_as_str_of_fraction(num, den, common):
    num, den = num * common, den * common
    assert rational(num, den) == str(Fraction(num, den))


# (n, d) pairs, d > 0, numerators of both signs, many of them n and d
# times a common factor k and so not in lowest terms
pair_lists = st.lists(st.builds(lambda n, d, k: (n * k, d * k),
                                st.integers(-10 ** 6, 10 ** 6),
                                st.integers(1, 10 ** 4), st.integers(1, 12)),
                      max_size=8)


@given(pair_lists)
@example([])
@example([(0, 6), (-4, 6), (3, 9), (5, 1)])
def test_common_denominator_puts_pairs_over_the_lcm(pairs):
    from sympy import primefactors
    values = [Fraction(n, d) for n, d in pairs]
    ints, den = common_denominator(iter(pairs))
    assert [Fraction(i, den) for i in ints] == values
    assert den == math.lcm(*(d for _, d in pairs))
    # in lowest terms, den is the least common denominator of the values:
    # it clears each of them, and den / p, for any prime p of den, not all
    ints, den = common_denominator([(x.numerator, x.denominator)
                                    for x in values])
    assert [Fraction(i, den) for i in ints] == values
    assert all((x * den).denominator == 1 for x in values)
    assert all(any((x * (den // p)).denominator != 1 for x in values)
               for p in primefactors(den))
    assert pairs or (ints, den) == ([], 1)


@given(tables)
@example([("t", ["c0", "c1"], [["-1/2", "3"], [], [""], ["a", 'b"c'],
                               ["\\", "x"]], ["note", "\u2028"])])
def test_render_json_writes_json_dumps(document):
    payload = {"tables": [{"title": title, "columns": columns, "rows": rows,
                           "notes": notes}
                          for title, columns, rows, notes in document]}
    assert render_json(document) == json.dumps(payload, indent=2) + "\n"


def csv_record(row):
    """One row as csv.writer writes it, without its line terminator.  A
    "\r\n" terminator makes every version quote a field that holds a bare
    "\r", as csv.writer does for any terminator from Python 3.13 on.
    Python 3.10's csv.writer refuses a field that holds a NUL, which later
    versions write bare; each NUL passes through it as the first private-use
    character that the row does not hold, which every version writes bare."""
    nul = next(c for c in map(chr, count(0xE000))
               if not any(c in field for field in row))
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(
        [field.replace("\x00", nul) for field in row])
    return out.getvalue().removesuffix("\r\n").replace(nul, "\x00")


@given(tables)
@example([("a\rb", ["\r", "c\r\nd"], [["\r\r"], [""]], ["x\r"])])
def test_render_csv_writes_csv_writer(document):
    records = []
    for index, (title, columns, rows, notes) in enumerate(document):
        if index:
            records.append([])
        records += [["table", title], columns, *rows,
                    *(["note", note] for note in notes)]
    assert render_csv(document) == \
        "".join(csv_record(row) + "\n" for row in records)
