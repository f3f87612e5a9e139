import random
from fractions import Fraction

import pytest

from braidinv.basis_solver import (ExactMatrix, SingularMatrixError,
                                   balanced_nodes, build_balanced,
                                   build_unbalanced, entry_sequence,
                                   identity_matrix, invert, mat_mul,
                                   solve_t_target, zeta2_check)
from braidinv.braid_ring import BraidSum

import oracles


def frac(n, d=1):
    return Fraction(n, d)


def test_balanced_nodes_order():
    assert balanced_nodes(0) == [0]
    assert balanced_nodes(2) == [0, 1, -1, 2, -2]


def test_build_balanced_small():
    assert build_balanced(0).rows == [[frac(1)]]
    M1 = build_balanced(1)
    assert M1.rows == [[1, 1, 1], [0, 1, -1], [0, 1, 1]]
    M2 = build_balanced(2)
    assert M2.dim == 5
    assert M2.rows[4] == [0, 1, 1, 16, 16]


def test_build_unbalanced_small():
    assert build_unbalanced(2).rows == [[1, 1, 1], [0, 1, 2], [0, 1, 4]]


def test_with_factorials_divides_rows():
    plain = build_balanced(1)
    scaled = build_balanced(1, with_factorials=True)
    assert scaled.rows[0] == plain.rows[0]
    assert scaled.rows[2] == [x / 2 for x in plain.rows[2]]


def test_invert_m1():
    N = invert(build_balanced(1))
    half = frac(1, 2)
    assert N.rows == [[1, 0, -1], [0, half, half], [0, -half, half]]
    assert N.entry(1, 3) == -1


def test_invert_identity_and_m2_entry():
    assert invert(identity_matrix(3)) == identity_matrix(3)
    assert invert(build_balanced(2)).entry(1, 3) == frac(-5, 4)


def test_entry_bounds():
    M = build_balanced(1)
    with pytest.raises(IndexError):
        M.entry(0, 1)
    with pytest.raises(IndexError):
        M.entry(1, 4)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        invert(ExactMatrix(2, [[1, 2], [2, 4]]))


def test_invert_matches_gauss_oracle_random():
    rng = random.Random(950)
    done = 0
    while done < 12:
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        try:
            expected = oracles.gauss_inverse(rows)
        except ZeroDivisionError:
            with pytest.raises(SingularMatrixError):
                invert(ExactMatrix(n, rows))
            continue
        assert invert(ExactMatrix(n, rows)).rows == expected
        done += 1


def test_invert_is_involutive_random():
    rng = random.Random(951)
    for _ in range(6):
        M = build_balanced(rng.randrange(1, 4))
        assert invert(invert(M)) == M


def test_zeta2_entries():
    expected = [frac(-1), frac(-5, 4), frac(-49, 36), frac(-205, 144),
                frac(-5269, 3600), frac(-5369, 3600), frac(-266681, 176400),
                frac(-1077749, 705600)]
    assert entry_sequence(1, 3, range(1, 9)) == expected


def test_onefive_entries_and_differences():
    expected = [frac(1, 4), frac(7, 18), frac(91, 192), frac(1529, 2880),
                frac(37037, 64800), frac(54613, 90720),
                frac(63566689, 101606400)]
    entries = entry_sequence(1, 5, range(2, 9))
    assert entries == expected
    diffs = [b - a for a, b in zip([frac(0)] + entries, entries)]
    assert diffs == [frac(1, 4), frac(5, 36), frac(49, 576), frac(41, 720),
                     frac(5269, 129600), frac(767, 25200),
                     frac(266681, 11289600)]


def test_zeta2_check_reports_equality():
    rows = zeta2_check(6)
    for r, entry, partial, equal in rows:
        assert equal
        assert -entry == partial
        assert partial == oracles.harmonic_second(r)


def test_unbalanced_entries_grow():
    values = [abs(invert(build_unbalanced(r)).entry(1, 3)) for r in range(3, 11)]
    assert values[0] == 1
    for a, b in zip(values, values[1:]):
        assert b > a


def test_solve_t_target_smallest_system():
    solution, b = solve_t_target(invert(build_balanced(1)))
    assert solution == [0, frac(1, 2), frac(-1, 2)]
    assert b == BraidSum({1: frac(1, 2), -1: frac(-1, 2)})


def test_solve_t_target_solves_the_system():
    for r in (1, 2, 3):
        M = build_balanced(r)
        solution, _ = solve_t_target(invert(M))
        for i in range(M.dim):
            lhs = sum((M.rows[i][j] * solution[j] for j in range(M.dim)),
                      frac(0))
            assert lhs == (1 if i == 1 else 0)
    with pytest.raises(ValueError):
        solve_t_target(invert(build_balanced(0)))


def test_mat_mul_shapes():
    with pytest.raises(ValueError):
        mat_mul(identity_matrix(2), identity_matrix(3))
