"""Exact integer matrix normal forms.

Matrices are lists of rows of Python ints.  Everything here is pure
arbitrary-precision integer arithmetic: Smith normal form with unimodular
transforms, column-style Hermite normal form for lattices and a
fraction-free determinant.
"""

from math import gcd
from typing import NamedTuple


class IntMatrix(NamedTuple):
    """Immutable integer matrix; entries stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(rows):
        rows = [tuple(int(x) for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), ncols, tuple(rows))

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def to_lists(self):
        return [list(r) for r in self.entries]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

def det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix):
    """Return (U, D, V) with D = U * M * V diagonal, d_i | d_{i+1}, d_i >= 0.

    U and V are unimodular.  Pivoting always selects a least-magnitude
    nonzero entry, which keeps coefficient growth tame at this scale.
    """
    a = m.to_lists()
    rows, cols = m.rows, m.cols
    u = IntMatrix.identity(rows).to_lists()
    v = IntMatrix.identity(cols).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    t = 0
    while t < rows and t < cols:
        # locate a least-magnitude nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = a[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide the whole trailing block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return (
        IntMatrix(rows, rows, tuple(map(tuple, u))),
        IntMatrix(rows, cols, tuple(map(tuple, a))),
        IntMatrix(cols, cols, tuple(map(tuple, v))),
    )


def snf_diagonal(m: IntMatrix):
    """Invariant factors of M (diagonal of its Smith form), zeros trimmed."""
    _, d, _ = smith_normal_form(m)
    out = []
    for i in range(min(d.rows, d.cols)):
        if d[i, i] != 0:
            out.append(d[i, i])
    return out


def hnf_invariant_factors(h):
    """Invariant factors above 1 of Z^n modulo the columns of a full-rank
    HNF h.  At n = 2, h = [[a, b], [0, c]] has gcd(a, b, c) and ac / gcd;
    any other size takes its Smith form."""
    if len(h) == 2:
        (a, b), (_, c) = h
        d = gcd(a, b, c)
        factors = (d, a * c // d)
    else:
        factors = snf_diagonal(IntMatrix.from_rows(h))
    return tuple(x for x in factors if x > 1)


def hnf_columns(columns, n):
    """Column-style Hermite normal form of the lattice spanned by `columns`.

    Each column is a length-n integer vector.  The lattice must have full
    rank n.  Returns an n x n matrix H (list of rows) that is upper
    triangular with positive diagonal and 0 <= H[i][j] < H[i][i] for j > i;
    its columns are the canonical lattice basis.
    """
    cols = [list(c) for c in columns]
    if any(len(c) != n for c in cols):
        raise ValueError("column length mismatch")
    basis = [None] * n
    # eliminate bottom row upward; gcd-combine columns sharing a pivot row
    for row in range(n - 1, -1, -1):
        cols = [c for c in cols if any(c[:row + 1])]
        pivot = None
        rest = []
        for c in cols:
            if c[row] != 0:
                if pivot is None:
                    pivot = c
                else:
                    # extended gcd combine: zero out c[row]
                    g, x, y = _xgcd(pivot[row], c[row])
                    pr, cr = pivot[row] // g, c[row] // g
                    new_pivot = [x * p + y * q for p, q in zip(pivot, c)]
                    new_c = [-cr * p + pr * q for p, q in zip(pivot, c)]
                    pivot = new_pivot
                    if any(v != 0 for v in new_c):
                        rest.append(new_c)
            else:
                rest.append(c)
        if pivot is None:
            raise ValueError("lattice not of full rank")
        if pivot[row] < 0:
            pivot = [-x for x in pivot]
        basis[row] = pivot
        cols = rest
    # normalize above-diagonal entries
    h = [[basis[j][i] for j in range(n)] for i in range(n)]  # h[i][j]: row i of col j
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = h[i][j] // h[i][i]
            if q:
                for k in range(n):
                    h[k][j] -= q * h[k][i]
    return h


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hnf_reduce(h, vec):
    """Canonical representative of `vec` modulo the column lattice of H."""
    n = len(h)
    x = list(vec)
    for i in range(n - 1, -1, -1):
        q = x[i] // h[i][i]
        if q:
            for k in range(i + 1):
                x[k] -= q * h[k][i]
    return tuple(x)
