import json
import math
from fractions import Fraction

import pytest

from braidinv import cli
from braidinv.basis_solver import (balanced_nodes, build_balanced,
                                   build_unbalanced, entry_sequence, invert)

import oracles
from oracles import read_pairs


def inverse(M):
    """invert(M) read back as rows of Fractions, each pair checked reduced."""
    return read_pairs(invert(M))


def entries(row, col, r_range):
    return read_pairs(entry_sequence(row, col, r_range))


def test_balanced_nodes_order():
    assert balanced_nodes(0) == [0]
    assert balanced_nodes(2) == [0, 1, -1, 2, -2]


def test_build_balanced_small():
    assert read_pairs(build_balanced(0).rows) == [[Fraction(1)]]
    M1 = build_balanced(1)
    assert read_pairs(M1.rows) == [[1, 1, 1], [0, 1, -1], [0, 1, 1]]
    M2 = build_balanced(2)
    assert M2.dim == 5
    assert read_pairs(M2.rows[4]) == [0, 1, 1, 16, 16]


def test_build_unbalanced_small():
    assert read_pairs(build_unbalanced(2).rows) == \
        [[1, 1, 1], [0, 1, 2], [0, 1, 4]]


def test_with_factorials_divides_rows():
    plain = build_balanced(1)
    scaled = build_balanced(1, with_factorials=True)
    assert read_pairs(scaled.rows[0]) == read_pairs(plain.rows[0])
    assert read_pairs(scaled.rows[2]) == \
        [x / 2 for x in read_pairs(plain.rows[2])]
    assert (plain.scale, scaled.scale) == ([1, 1, 1], [1, 1, 2])


def test_invert_m1():
    N = inverse(build_balanced(1))
    half = Fraction(1, 2)
    assert N == [[1, 0, -1], [0, half, half], [0, -half, half]]
    assert N[0][2] == -1


def test_invert_identity_and_m2_entry():
    # the only moment matrix that is an identity is the 1x1 one
    for M in (build_balanced(0), build_unbalanced(0, with_factorials=True)):
        N = invert(M)
        assert (M.dim, N) == (1, [[(1, 1)]])
        assert type(N[0][0][0]) is int
    assert inverse(build_balanced(2))[0][2] == Fraction(-5, 4)


def test_entry_bounds(capsys):
    # entries are 1-based and checked against the built matrix's dim
    for entry in ("0,1", "1,4"):
        assert cli.main(["basis", "--r", "1", "--entry", entry]) == 1
        assert capsys.readouterr().err == \
            f"error: bad --entry: entry ({entry}) outside a 3x3 matrix\n"
    assert cli.main(["basis", "--r", "1", "--entry", "1,3"]) == 0
    assert "inverse entry (1,3)" in capsys.readouterr().out


ORACLE_ORDERS = list(range(1, 25)) + [60]


def test_row_one_is_the_partial_euler_product():
    for r in [0] + ORACLE_ORDERS:
        assert inverse(build_balanced(r))[0] == oracles.euler_product_row(r)


def test_column_one_holds_the_difference_weights():
    for r in ORACLE_ORDERS:
        N = invert(build_balanced(r))
        assert [row[1] for row in read_pairs(N)] == \
            oracles.difference_weights(r)


def test_with_factorials_rescales_the_inverse_columns():
    for build in (build_balanced, build_unbalanced):
        for r in range(6):
            plain = inverse(build(r))
            scaled = inverse(build(r, with_factorials=True))
            assert scaled == [[x * math.factorial(i)
                               for i, x in enumerate(row)]
                              for row in plain]


def test_zeta2_entries():
    expected = [Fraction(-1), Fraction(-5, 4), Fraction(-49, 36),
                Fraction(-205, 144), Fraction(-5269, 3600),
                Fraction(-5369, 3600), Fraction(-266681, 176400),
                Fraction(-1077749, 705600)]
    assert entries(1, 3, range(1, 9)) == expected


def test_onefive_entries_and_differences():
    expected = [Fraction(1, 4), Fraction(7, 18), Fraction(91, 192),
                Fraction(1529, 2880), Fraction(37037, 64800),
                Fraction(54613, 90720),
                Fraction(63566689, 101606400)]
    onefive = entries(1, 5, range(2, 9))
    assert onefive == expected
    diffs = [b - a for a, b in zip([Fraction(0)] + onefive, onefive)]
    assert diffs == [Fraction(1, 4), Fraction(5, 36), Fraction(49, 576),
                     Fraction(41, 720), Fraction(5269, 129600),
                     Fraction(767, 25200),
                     Fraction(266681, 11289600)]


def test_entry_sequence_matches_the_full_inverse():
    # the one-row route against the whole verified inverse
    for r in range(6):
        N = inverse(build_balanced(r))
        for row in range(1, 2 * r + 2):
            for col in range(1, 2 * r + 2):
                assert entries(row, col, [r]) == [N[row - 1][col - 1]]


def test_entry_sequence_rejects_entries_outside_the_matrix():
    for row, col in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(ValueError, match="outside a 3x3 matrix"):
            entry_sequence(row, col, [1])
    with pytest.raises(ValueError, match="nonnegative"):
        entry_sequence(1, 1, [-1])


def test_zeta2_check_reports_equality():
    zeta2 = entries(1, 3, range(1, 7))
    assert [-e for e in zeta2] == [oracles.harmonic_second(r)
                                   for r in range(1, 7)]


def test_unbalanced_entries_grow():
    values = [abs(inverse(build_unbalanced(r))[0][2]) for r in range(3, 11)]
    assert values[0] == 1
    for a, b in zip(values, values[1:]):
        assert b > a


@pytest.mark.parametrize("r", range(1, 9))
def test_solve_t_tables_match_their_oracles(r, capsys):
    assert cli.main(["basis", "--r", str(r), "--solve-t",
                     "--format", "json"]) == 0
    tables = {table["title"]: table
              for table in json.loads(capsys.readouterr().out)["tables"]}
    nodes = [0] + [n for k in range(1, r + 1) for n in (k, -k)]
    weights = dict(zip(nodes, oracles.difference_weights(r)))
    # the weights solve the system: node powers against (0, 1, 0, ...)
    assert [sum(c * n ** i for n, c in weights.items())
            for i in range(len(nodes))] == [int(i == 1)
                                            for i in range(len(nodes))]
    solution = tables["solution of the degree-1 target system"]
    assert solution["rows"] == [[str(n), str(weights[n])] for n in nodes]
    [note] = solution["notes"]
    terms = [term.split("*q^")
             for term in note.removeprefix("as a braid sum: ").split(" + ")]
    assert [(int(n), Fraction(c)) for c, n in terms] == \
        sorted(((n, c) for n, c in weights.items() if c), reverse=True)
    order = r if r % 2 else r - 1
    arcsinh = oracles.arcsinh2_binomial(order)
    lift = oracles.braid_poly(dict(enumerate(arcsinh)), oracles.TAU)
    table = tables[f"solution against the order {order} lift expansion"]
    powers = sorted({n for n, c in weights.items() if c} | set(lift))
    diffs = {n: weights[n] - lift.get(n, 0) for n in powers}
    assert table["rows"] == [[str(n), str(weights[n]), str(lift.get(n, 0)),
                              str(diffs[n])] for n in powers]
    worst = max(map(abs, diffs.values()))
    assert table["notes"][0] == "largest coefficient distance: " + \
        oracles.mpmath_fraction_cell(worst, 50)
