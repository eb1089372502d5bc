"""Linear algebra over the prime field F_p.

Entries are ints reduced mod p.  Gaussian elimination only, in one place:
FpRankAccumulator reduces each row against the pivot rows kept so far, and
fp_rank is its rank after every row.  p is a prime small enough that Fermat
inversion is cheap.
"""


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


def fp_rank(rows, p):
    """Rank over F_p of the rows, which must all have one width
    (ValueError otherwise)."""
    rows = list(rows)
    acc = FpRankAccumulator(p, len(rows[0]) if rows else 0)
    for row in rows:
        acc.add(row)
    return acc.rank
