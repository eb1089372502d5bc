"""Linear algebra over the prime field F_p.

Entries are ints reduced mod p.  Gaussian elimination only; p is a prime
small enough that Fermat inversion is cheap.
"""

from typing import NamedTuple


class FpMatrix(NamedTuple):
    """Matrix over F_p; entries reduced into [0, p)."""

    p: int
    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(rows, p):
        rows = [tuple(int(x) % p for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return FpMatrix(p, len(rows), ncols, tuple(rows))


def _rref(nrows, ncols, data, p):
    """Row-reduce in place; returns list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if data[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = pow(data[r][c], p - 2, p)
        data[r] = [(x * inv) % p for x in data[r]]
        for i in range(nrows):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [(x - f * y) % p for x, y in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def fp_rank_kernel(m: FpMatrix):
    """Rank and a kernel basis of M over F_p.

    Kernel vectors use the standard free-variable parametrization: for each
    non-pivot column j, the vector with 1 at j and the negated reduced
    column above the pivots.
    """
    data = [list(r) for r in m.entries]
    pivots = _rref(m.rows, m.cols, data, m.p)
    rank = len(pivots)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * m.cols
        vec[j] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-data[i][j]) % m.p
        basis.append(tuple(vec))
    return rank, basis


def fp_rank(rows, p):
    data = [list(r) for r in rows]
    if not data:
        return 0
    return len(_rref(len(data), len(data[0]), data, p))


class FpRankAccumulator:
    """Incrementally tracks the span of row vectors over F_p.

    add() returns True when the vector enlarged the span.  Internally keeps
    reduced echelon rows keyed by pivot position.
    """

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self._pivots = {}

    @property
    def rank(self):
        return len(self._pivots)

    def add(self, vec) -> bool:
        p = self.p
        v = [x % p for x in vec]
        if len(v) != self.width:
            raise ValueError("width mismatch")
        for c, row in self._pivots.items():
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        for c in range(self.width):
            if v[c]:
                inv = pow(v[c], p - 2, p)
                self._pivots[c] = tuple((x * inv) % p for x in v)
                return True
        return False

    def contains(self, vec) -> bool:
        p = self.p
        v = [x % p for x in vec]
        for c, row in self._pivots.items():
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return all(x == 0 for x in v)
