"""Exact moment matrices over braid power bases and their inverses.

The balanced basis takes braid powers in the node order 0, 1, -1, 2, -2, ...
and row i of the matrix holds the i-th powers of the nodes (0^0 = 1).  Its
inverse is computed by fraction-free Bareiss elimination and verified by
multiplying back.  Specific inverse entries form sequences with number
theoretic content: the (1,3) entries are minus the partial sums of 1/k^2.
The unbalanced variant on nodes 0..r is there to show the opposite, its
entries grow without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .braid_ring import BraidSum


class SingularMatrixError(ValueError):
    """Raised when elimination finds no usable pivot."""


@dataclass
class ExactMatrix:
    dim: int
    rows: list

    def __post_init__(self):
        if self.dim < 1 or len(self.rows) != self.dim:
            raise ValueError("matrix shape mismatch")
        self.rows = [[Fraction(x) for x in row] for row in self.rows]
        for row in self.rows:
            if len(row) != self.dim:
                raise ValueError("matrix shape mismatch")

    def entry(self, row: int, col: int) -> Fraction:
        """1-based access, matching the printed sequence positions."""
        if not (1 <= row <= self.dim and 1 <= col <= self.dim):
            raise IndexError(f"entry ({row},{col}) outside a {self.dim}x{self.dim} matrix")
        return self.rows[row - 1][col - 1]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix(n, [[Fraction(int(i == j)) for j in range(n)]
                           for i in range(n)])


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    n = a.dim
    rows = [[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]
    return ExactMatrix(n, rows)


def balanced_nodes(r: int) -> list[int]:
    nodes = [0]
    for k in range(1, r + 1):
        nodes += [k, -k]
    return nodes


def _moment_matrix(nodes, with_factorials=False) -> ExactMatrix:
    dim = len(nodes)
    rows = []
    for i in range(dim):
        row = [Fraction(1 if n == 0 and i == 0 else n ** i) for n in nodes]
        if with_factorials:
            f = math.factorial(i)
            row = [x / f for x in row]
        rows.append(row)
    return ExactMatrix(dim, rows)


def build_balanced(r: int, with_factorials: bool = False) -> ExactMatrix:
    """(2r+1) x (2r+1) moment matrix over the nodes 0, 1, -1, ..., r, -r."""
    if r < 0:
        raise ValueError("negative order")
    return _moment_matrix(balanced_nodes(r), with_factorials)


def build_unbalanced(r: int, with_factorials: bool = False) -> ExactMatrix:
    """(r+1) x (r+1) moment matrix over the one-sided nodes 0..r."""
    if r < 0:
        raise ValueError("negative order")
    return _moment_matrix(list(range(r + 1)), with_factorials)


def invert(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse via Bareiss elimination, verified by M*N = I.

    The fraction-free update keeps intermediate entries as small as the
    theory allows; the divisions it performs are exact by construction.
    """
    n = M.dim
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(M.rows)]
    prev = Fraction(1)
    for k in range(n):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if work[r][k] != 0), None)
            if swap is None:
                raise SingularMatrixError(f"no pivot in column {k}")
            work[k], work[swap] = work[swap], work[k]
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, 2 * n):
                work[i][j] = (pivot * work[i][j] - work[i][k] * work[k][j]) / prev
            work[i][k] = Fraction(0)
        prev = pivot
    inverse_rows = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = work[i][n + col]
            for j in range(i + 1, n):
                acc -= work[i][j] * inverse_rows[j][col]
            inverse_rows[i][col] = acc / work[i][i]
    N = ExactMatrix(n, inverse_rows)
    if mat_mul(M, N) != identity_matrix(n):
        raise ArithmeticError("inverse failed its own verification")
    return N


def entry_sequence(row: int, col: int, r_range) -> list[Fraction]:
    """Inverse entries (1-based) of the balanced matrices over a range of r."""
    out = []
    for r in r_range:
        N = invert(build_balanced(r))
        out.append(N.entry(row, col))
    return out


def zeta2_check(r_max: int) -> list[tuple[int, Fraction, Fraction, bool]]:
    """Rows (r, inverse (1,3) entry, partial sum of 1/k^2, equal?).

    The entries are conjecturally the negated partial sums; the rows report
    the comparison instead of assuming it.
    """
    rows = []
    partial = Fraction(0)
    for r in range(1, r_max + 1):
        partial += Fraction(1, r * r)
        entry = invert(build_balanced(r)).entry(1, 3)
        rows.append((r, entry, partial, -entry == partial))
    return rows


def solve_t_target(N: ExactMatrix):
    """Solve the balanced moment system against the target (0, 1, 0, ...).

    N is the inverse of a balanced moment matrix, so the solution is its
    column 1.  Returns the solution both as a coefficient list over the node
    order and reassembled into a braid sum over the corresponding braid powers.
    """
    if N.dim < 3:
        raise ValueError("the degree-1 target needs r >= 1")
    solution = [row[1] for row in N.rows]
    return solution, BraidSum(dict(zip(balanced_nodes(N.dim // 2), solution)))
