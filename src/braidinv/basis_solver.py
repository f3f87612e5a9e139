"""Exact moment matrices over braid power bases and their inverses.

The balanced basis takes braid powers in the node order 0, 1, -1, 2, -2, ...
and row i of the matrix holds the i-th powers of the nodes (0^0 = 1),
divided by i! with factorials.  Row k of the inverse holds the coefficients
of the Lagrange polynomial of node k, w(x) / ((x - n_k) w'(n_k)) with
w(x) = prod_j (x - n_j), read off one synthetic division of w over the
integers (Macon and Spitzbart, Amer. Math. Monthly 65, 1958); factorials
only rescale its columns.  Every inverse is verified entry by entry,
N*M = I, by evaluating each row polynomial at every node on integers.

Over the balanced nodes, row 1 is the partial Euler product
prod_{k<=r} (1 - x^2/k^2) of sin(pi x)/(pi x), so the (1,3) entries are
minus the partial sums of 1/k^2, and column 1 holds the centered
finite-difference weights for f'(0).  The unbalanced variant on nodes
0..r is there to show the opposite, its entries grow without bound.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactMatrix:
    def __init__(self, dim: int, rows: list):
        if dim < 1 or len(rows) != dim:
            raise ValueError("matrix shape mismatch")
        self.dim = dim
        self.rows = [[x if type(x) is Fraction else Fraction(x) for x in row]
                     for row in rows]
        for row in self.rows:
            if len(row) != self.dim:
                raise ValueError("matrix shape mismatch")

    def entry(self, row: int, col: int) -> Fraction:
        """1-based access, matching the printed sequence positions."""
        if not (1 <= row <= self.dim and 1 <= col <= self.dim):
            raise IndexError(f"entry ({row},{col}) outside a {self.dim}x{self.dim} matrix")
        return self.rows[row - 1][col - 1]


class MomentMatrix(ExactMatrix):
    """Row i holds n^i (over i! with factorials) for distinct integer nodes n."""

    def __init__(self, nodes, with_factorials: bool = False):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("moment matrix nodes must be distinct")
        self.with_factorials = with_factorials
        scale = _column_scale(len(self.nodes), with_factorials)
        super().__init__(len(self.nodes),
                         [[Fraction(n ** i, f) for n in self.nodes]
                          for i, f in enumerate(scale)])


def _column_scale(dim: int, with_factorials: bool) -> list[int]:
    return [math.factorial(i) if with_factorials else 1 for i in range(dim)]


def balanced_nodes(r: int) -> list[int]:
    nodes = [0]
    for k in range(1, r + 1):
        nodes += [k, -k]
    return nodes


def build_balanced(r: int, with_factorials: bool = False) -> MomentMatrix:
    """(2r+1) x (2r+1) moment matrix over the nodes 0, 1, -1, ..., r, -r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return MomentMatrix(balanced_nodes(r), with_factorials)


def build_unbalanced(r: int, with_factorials: bool = False) -> MomentMatrix:
    """(r+1) x (r+1) moment matrix over the one-sided nodes 0..r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return MomentMatrix(range(r + 1), with_factorials)


def _lagrange_rows(nodes, scale) -> list[list[Fraction]]:
    """Row k: coefficients of w(x) / (x - n_k) over prod_{j != k} (n_k - n_j)."""
    w = [1]
    for a in nodes:
        w = [0] + w
        for i in range(len(w) - 1):
            w[i] -= a * w[i + 1]
    rows = []
    for a in nodes:
        q = [0] * len(nodes)
        q[-1] = w[-1]
        for i in range(len(q) - 1, 0, -1):
            q[i - 1] = w[i] + a * q[i]
        value = math.prod(a - b for b in nodes if b != a)
        rows.append([Fraction(c * f, value) for c, f in zip(q, scale)])
    return rows


def _horner(coeffs, x: int) -> int:
    """The polynomial with coefficients highest degree first, at x."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _verify(nodes, scale, rows) -> None:
    """N*M = I in every entry: row k's polynomial is 1 at n_k, 0 elsewhere.

    p(n) = E(n^2) + n O(n^2) for the even and odd parts E and O of p, so
    both are evaluated once per square and serve the nodes n and -n alike.
    """
    squares = {}
    for j, x in enumerate(nodes):
        squares.setdefault(x * x, []).append((j, x))
    for k, row in enumerate(rows):
        coeffs = [x / f for x, f in zip(row, scale)]
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        even, odd = ints[0::2][::-1], ints[1::2][::-1]
        for square, group in squares.items():
            e, o = _horner(even, square), _horner(odd, square)
            for j, x in group:
                if e + x * o != (den if j == k else 0):
                    raise ArithmeticError("inverse failed its own verification")


def invert(M: MomentMatrix) -> ExactMatrix:
    """Exact inverse of a moment matrix from its Lagrange rows, verified."""
    if not isinstance(M, MomentMatrix):
        raise ValueError("invert needs a moment matrix")
    scale = _column_scale(M.dim, M.with_factorials)
    rows = _lagrange_rows(M.nodes, scale)
    _verify(M.nodes, scale, rows)
    return ExactMatrix(M.dim, rows)


def entry_sequence(row: int, col: int, r_range) -> list[Fraction]:
    """Inverse entries (1-based) of the balanced matrices over a range of r."""
    out = []
    for r in r_range:
        N = invert(build_balanced(r))
        out.append(N.entry(row, col))
    return out


def solve_t_target(N: ExactMatrix):
    """Solve the balanced moment system against the target (0, 1, 0, ...).

    N is the inverse of a balanced moment matrix, so the solution is its
    column 1.  Returns the solution both as a coefficient list over the node
    order and reassembled into a braid sum over the corresponding braid powers.
    """
    from .braid_ring import BraidSum
    if N.dim < 3:
        raise ValueError("the degree-1 target needs r >= 1")
    solution = [row[1] for row in N.rows]
    return solution, BraidSum(dict(zip(balanced_nodes(N.dim // 2), solution)))
