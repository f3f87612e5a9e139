"""Exact moment matrices over braid power bases and their inverses.

The balanced basis takes braid powers in the node order 0, 1, -1, 2, -2, ...
and row i of the matrix holds the i-th powers of the nodes (0^0 = 1),
divided by i! with factorials.  Row k of the inverse holds the coefficients
of the Lagrange polynomial of node k, w(x) / ((x - n_k) w'(n_k)) with
w(x) = prod_j (x - n_j), read off one synthetic division of w over the
integers (Macon and Spitzbart, Amer. Math. Monthly 65, 1958); factorials
only rescale its columns.  Every matrix entry is an exact rational held
as a reduced (numerator, denominator) integer pair with den > 0, as it is
printed.  An inverse is a list of rows, and each row the caller reads is
certified exactly on its printed integers: w is monic of degree dim and
zero at every node, and the row's polynomial p over a common denominator
den satisfies p(x) (x - n_k) = p_top w(x) and p(n_k) = den.  As the nodes
are distinct, that is row k of N*M = I, at O(dim) big-integer products
per row.  w is formed once per matrix and shared by the rows and their
certificate.  On a node set symmetric about 0 the row of -a is the row of
a with its odd columns negated, as L_-a(x) = L_a(-x), so only one row of
each +-a pair is divided and reduced; the mirrored rows are certified like
the others.  A sequence of single entries forms and certifies only the row
it reads, never the whole inverse.

Over the balanced nodes, row 1 is the partial Euler product
prod_{k<=r} (1 - x^2/k^2) of sin(pi x)/(pi x), so the (1,3) entries are
minus the partial sums of 1/k^2, and column 1 holds the centered
finite-difference weights for f'(0).  The unbalanced variant on nodes
0..r is there to show the opposite, its entries grow without bound.
"""

import math

from .render import _reduced, common_denominator


class MomentMatrix:
    """Row i holds n^i (over i! with factorials) for distinct integer nodes
    n, each entry a reduced (numerator, denominator) pair."""

    def __init__(self, nodes, with_factorials: bool = False):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("moment matrix nodes must be distinct")
        self.dim = len(self.nodes)
        self.scale = [math.factorial(i) if with_factorials else 1
                      for i in range(self.dim)]
        self.rows = [[_reduced(n ** i, f) for n in self.nodes]
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


def _lagrange_rows(nodes, w, scale, ks) -> list[list[tuple]]:
    """Rows ks: w(x) / (x - n_k) over prod_{j != k} (n_k - n_j), scaled,
    as reduced pairs; over symmetric nodes, the second row of a +-a pair
    is the mirror of the first."""
    symmetric = {-b for b in nodes} == set(nodes)
    rows, formed = [], {}
    for k in ks:
        a = nodes[k]
        if symmetric and -a in formed:
            row = _mirror(formed[-a])
        else:
            value = math.prod(a - b for b in nodes if b != a)
            row = [_reduced(c * f, value)
                   for c, f in zip(_lagrange_row(w, a), scale)]
        formed[a] = row
        rows.append(row)
    return rows


def _mirror(row) -> list[tuple]:
    """The row of node -a from the row of a, its odd columns negated."""
    mirrored = row[:]
    mirrored[1::2] = [(-num, den) for num, den in row[1::2]]
    return mirrored


def _horner(coeffs, x: int) -> int:
    """The polynomial with coefficients lowest degree first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _verify(nodes, w, scale, rows, ks) -> None:
    """Rows ks of N*M = I, by the certificate above on the printed rows."""
    fail = ArithmeticError("inverse failed its own verification")
    if len(w) != len(nodes) + 1 or w[-1] != 1 or \
            any(_horner(w, x) for x in nodes):
        raise fail
    for k, row in zip(ks, rows):
        p, den = common_denominator([(num, d * f)
                                     for (num, d), f in zip(row, scale)])
        a = nodes[k]
        times_x_minus_a = [lo - a * hi for lo, hi in zip([0] + p, p + [0])]
        if times_x_minus_a != [p[-1] * c for c in w] or _horner(p, a) != den:
            raise fail


def _certified_rows(nodes, scale, ks) -> list[list[tuple]]:
    """Rows ks of the inverse over the nodes, formed on one w and certified."""
    w = _node_polynomial(nodes)
    rows = _lagrange_rows(nodes, w, scale, ks)
    _verify(nodes, w, scale, rows, ks)
    return rows


def invert(M: MomentMatrix) -> list[list[tuple]]:
    """The rows of M's exact inverse: its Lagrange rows, verified."""
    return _certified_rows(M.nodes, M.scale, range(M.dim))


def entry_sequence(row: int, col: int, r_range) -> list[tuple]:
    """Inverse entries (1-based) of the balanced matrices over a range of r,
    as reduced pairs.

    Only Lagrange row `row` is formed and certified for each r, the same
    way `invert` forms and certifies every row.
    """
    entries = []
    for r in r_range:
        nodes = balanced_nodes(r)
        dim = len(nodes)
        if not (1 <= row <= dim and 1 <= col <= dim):
            raise ValueError(f"entry ({row},{col}) outside a {dim}x{dim} "
                             f"matrix")
        [lagrange] = _certified_rows(nodes, [1] * dim, [row - 1])
        entries.append(lagrange[col - 1])
    return entries

