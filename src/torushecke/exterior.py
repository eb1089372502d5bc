"""Exterior algebra over F_p on a fixed r-dimensional space.

A homogeneous degree-j multivector is stored as a dense coefficient tuple
indexed by the j-element subsets of {0, ..., r-1} in colexicographic order
(compare largest elements first).  Colex order makes the index of a subset
independent of r, so serialized coordinates are stable across ranks.
"""

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple


@lru_cache(maxsize=None)
def subsets_colex(r, j):
    """All j-subsets of {0..r-1} as sorted tuples, in colex order."""
    if j < 0 or j > r:
        return ()
    subs = sorted(combinations(range(r), j), key=lambda s: tuple(reversed(s)))
    return tuple(subs)


@lru_cache(maxsize=None)
def _subset_index(r, j):
    return {s: i for i, s in enumerate(subsets_colex(r, j))}


def merge_sign(s, t):
    """Shuffle sign of concatenating disjoint sorted tuples s and t.

    Counts the inversions needed to sort s + t; returns 0 on overlap.
    """
    inv = 0
    for a in s:
        for b in t:
            if a == b:
                return 0
            if a > b:
                inv += 1
    return -1 if inv % 2 else 1


class _MultiVectorFields(NamedTuple):
    p: int
    rank: int
    degree: int
    coords: tuple


class MultiVector(_MultiVectorFields):
    """Homogeneous element of Lambda^degree(F_p^rank).

    A NamedTuple body cannot override __new__, so the fields live on a base
    and this subclass checks the coordinate length on every construction,
    _make and _replace included.
    """

    __slots__ = ()

    def __new__(cls, p, rank, degree, coords):
        want = comb(rank, degree) if 0 <= degree <= rank else 0
        if len(coords) != want:
            raise ValueError("coordinate length mismatch")
        return super().__new__(cls, p, rank, degree, coords)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @staticmethod
    def zero(p, rank, degree):
        n = comb(rank, degree) if 0 <= degree <= rank else 0
        return MultiVector(p, rank, degree, (0,) * n)

    @staticmethod
    def scalar(p, rank, value=1):
        return MultiVector(p, rank, 0, (value % p,))

    @staticmethod
    def from_vector(p, rank, values):
        """Degree-1 multivector from an r-vector of coefficients."""
        vals = tuple(v % p for v in values)
        if len(vals) != rank:
            raise ValueError("vector length mismatch")
        return MultiVector(p, rank, 1, vals)

    @staticmethod
    def basis_blade(p, rank, subset):
        subset = tuple(sorted(subset))
        j = len(subset)
        coords = [0] * comb(rank, j)
        coords[_subset_index(rank, j)[subset]] = 1
        return MultiVector(p, rank, j, tuple(coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def add(self, other):
        self._check(other, same_degree=True)
        return MultiVector(
            self.p, self.rank, self.degree,
            tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)),
        )

    def scale(self, c):
        c %= self.p
        return MultiVector(self.p, self.rank, self.degree, tuple((c * a) % self.p for a in self.coords))

    def neg(self):
        return self.scale(self.p - 1)

    def _check(self, other, same_degree=False):
        if (self.p, self.rank) != (other.p, other.rank):
            raise ValueError("mixed ambient spaces")
        if same_degree and self.degree != other.degree:
            raise ValueError("mixed degrees")


def wedge(u: MultiVector, w: MultiVector) -> MultiVector:
    """Exterior product with the shuffle sign of the index merge."""
    u._check(w)
    p, r = u.p, u.rank
    dj = u.degree + w.degree
    if dj > r:
        return MultiVector(p, r, dj, ())
    out = [0] * comb(r, dj)
    idx = _subset_index(r, dj)
    subs_u = subsets_colex(r, u.degree)
    subs_w = subsets_colex(r, w.degree)
    for iu, su in enumerate(subs_u):
        cu = u.coords[iu]
        if not cu:
            continue
        for iw, sw in enumerate(subs_w):
            cw = w.coords[iw]
            if not cw:
                continue
            sgn = merge_sign(su, sw)
            if sgn:
                merged = tuple(sorted(su + sw))
                out[idx[merged]] = (out[idx[merged]] + sgn * cu * cw) % p
    return MultiVector(p, r, dj, tuple(out))
