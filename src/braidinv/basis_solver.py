"""Exact moment matrices over braid power bases and their inverses.

The balanced basis takes braid powers in the node order 0, 1, -1, 2, -2, ...
and row i of the matrix holds the i-th powers of the nodes (0^0 = 1),
divided by i! with factorials.  Row k of the inverse holds the coefficients
of the Lagrange polynomial of node k, w(x) / ((x - n_k) w'(n_k)) with
w(x) = prod_j (x - n_j), read off one synthetic division of w over the
integers (Macon and Spitzbart, Amer. Math. Monthly 65, 1958); factorials
only rescale its columns.  An inverse is a list of rows, verified entry
by entry, N*M = I, evaluating each row polynomial at each node on integers.
A sequence of single entries forms and checks only the row it reads: one
synthetic division and that row of N*M = I, never the whole inverse.

Over the balanced nodes, row 1 is the partial Euler product
prod_{k<=r} (1 - x^2/k^2) of sin(pi x)/(pi x), so the (1,3) entries are
minus the partial sums of 1/k^2, and column 1 holds the centered
finite-difference weights for f'(0).  The unbalanced variant on nodes
0..r is there to show the opposite, its entries grow without bound.
"""

import math
from fractions import Fraction


class MomentMatrix:
    """Row i holds n^i (over i! with factorials) for distinct integer nodes n."""

    def __init__(self, nodes, with_factorials: bool = False):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("moment matrix nodes must be distinct")
        self.dim = len(self.nodes)
        self.scale = [math.factorial(i) if with_factorials else 1
                      for i in range(self.dim)]
        self.rows = [[Fraction(n ** i, f) for n in self.nodes]
                     for i, f in enumerate(self.scale)]


def balanced_nodes(r: int) -> list[int]:
    if r < 0:
        raise ValueError("r must be nonnegative")
    nodes = [0]
    for k in range(1, r + 1):
        nodes += [k, -k]
    return nodes


def build_balanced(r: int, with_factorials: bool = False) -> MomentMatrix:
    """(2r+1) x (2r+1) moment matrix over the nodes 0, 1, -1, ..., r, -r."""
    return MomentMatrix(balanced_nodes(r), with_factorials)


def build_unbalanced(r: int, with_factorials: bool = False) -> MomentMatrix:
    """(r+1) x (r+1) moment matrix over the one-sided nodes 0..r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return MomentMatrix(range(r + 1), with_factorials)


def _node_polynomial(nodes) -> list[int]:
    """w(x) = prod_j (x - n_j), its integer coefficients lowest degree first."""
    w = [1]
    for a in nodes:
        w = [0] + w
        for i in range(len(w) - 1):
            w[i] -= a * w[i + 1]
    return w


def _lagrange_row(w, a) -> list[int]:
    """w(x) / (x - a), lowest degree first, for a root a of w."""
    q = [0] * (len(w) - 1)
    q[-1] = w[-1]
    for i in range(len(q) - 1, 0, -1):
        q[i - 1] = w[i] + a * q[i]
    return q


def _lagrange_rows(nodes, scale) -> list[list[Fraction]]:
    """Row k: coefficients of w(x) / (x - n_k) over prod_{j != k} (n_k - n_j)."""
    w = _node_polynomial(nodes)
    rows = []
    for a in nodes:
        value = math.prod(a - b for b in nodes if b != a)
        rows.append([Fraction(c * f, value)
                     for c, f in zip(_lagrange_row(w, a), scale)])
    return rows


def _horner(coeffs, x: int) -> int:
    """The polynomial with coefficients highest degree first, at x."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _check_row(ints, k, value, nodes) -> None:
    """The polynomial ints (lowest degree first) is value at n_k, 0 elsewhere.

    p(n) = E(n^2) + n O(n^2) for the even and odd parts E and O of p, so
    both are evaluated once per square and serve the nodes n and -n alike.
    """
    squares = {}
    for j, x in enumerate(nodes):
        squares.setdefault(x * x, []).append((j, x))
    even, odd = ints[0::2][::-1], ints[1::2][::-1]
    for square, group in squares.items():
        e, o = _horner(even, square), _horner(odd, square)
        for j, x in group:
            if e + x * o != (value if j == k else 0):
                raise ArithmeticError("inverse failed its own verification")


def _verify(nodes, scale, rows) -> None:
    """N*M = I in every entry: row k's polynomial is 1 at n_k, 0 elsewhere."""
    for k, row in enumerate(rows):
        coeffs = [x / f for x, f in zip(row, scale)]
        den = math.lcm(*(c.denominator for c in coeffs))
        _check_row([c.numerator * (den // c.denominator) for c in coeffs],
                   k, den, nodes)


def invert(M: MomentMatrix) -> list[list[Fraction]]:
    """The rows of M's exact inverse: its Lagrange rows, verified."""
    rows = _lagrange_rows(M.nodes, M.scale)
    _verify(M.nodes, M.scale, rows)
    return rows


def entry_sequence(row: int, col: int, r_range) -> list[Fraction]:
    """Inverse entries (1-based) of the balanced matrices over a range of r.

    Only Lagrange row `row` is formed for each r.  Before its entry is
    read, the row is checked on integers: w(x) / (x - a) must be
    prod_{b != a} (a - b) at its own node a and 0 at every other node,
    which is row `row` of N*M = I.
    """
    entries = []
    for r in r_range:
        nodes = balanced_nodes(r)
        if not (1 <= row <= len(nodes) and 1 <= col <= len(nodes)):
            raise ValueError(f"entry ({row},{col}) outside a "
                             f"{len(nodes)}x{len(nodes)} matrix")
        a = nodes[row - 1]
        ints = _lagrange_row(_node_polynomial(nodes), a)
        value = math.prod(a - b for b in nodes if b != a)
        _check_row(ints, row - 1, value, nodes)
        entries.append(Fraction(ints[col - 1], value))
    return entries


def solve_t_target(N: list):
    """Solve the balanced moment system against the target (0, 1, 0, ...).

    The solution is column 1 of N, the rows of a balanced inverse; it is
    returned as a list in node order and as the braid sum over those powers.
    """
    from .braid_ring import BraidSum
    if len(N) < 3:
        raise ValueError("the degree-1 target needs r >= 1")
    solution = [row[1] for row in N]
    return solution, BraidSum(dict(zip(balanced_nodes(len(N) // 2), solution)))
