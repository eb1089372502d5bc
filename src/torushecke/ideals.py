"""Integral ideals of Z[theta] as column Hermite normal form lattices.

An ideal is the Z-span of the columns of an upper-triangular HNF matrix,
coordinates taken over the power basis.  HNF is canonical, so equality of
ideals is equality of matrices, the norm is the diagonal product, and the
box of vectors below the diagonal is an exact transversal of the quotient.
"""

from itertools import product
from typing import NamedTuple

from .field import FieldDescriptor, element_mul
from .intlinalg import IntMatrix, hnf_columns, hnf_reduce


class IdealHNF(NamedTuple):
    """hnf[i][j] is row i of basis column j; upper triangular, canonical."""

    hnf: tuple

    @property
    def dim(self):
        return len(self.hnf)

    @property
    def norm(self):
        out = 1
        for i in range(len(self.hnf)):
            out *= self.hnf[i][i]
        return out

    def basis_columns(self):
        n = len(self.hnf)
        return [tuple(self.hnf[i][j] for i in range(n)) for j in range(n)]

    def reduce(self, x):
        """Canonical representative of x modulo the ideal lattice."""
        return hnf_reduce(self.hnf, x)

    def contains(self, x):
        return all(c == 0 for c in self.reduce(x))


def _hnf_of_columns(cols, n):
    h = hnf_columns(cols, n)
    return IdealHNF(tuple(tuple(row) for row in h))


def ideal_from_generators(gens, F: FieldDescriptor):
    """The Z[theta]-module generated by the given elements."""
    n = F.degree
    cols = []
    for g in gens:
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            cols.append(element_mul(g, e, F))
    if all(all(c == 0 for c in col) for col in cols):
        raise ValueError("zero ideal")
    return _hnf_of_columns(cols, n)


def principal_ideal(x, F: FieldDescriptor):
    return ideal_from_generators([tuple(x)], F)


def unit_ideal(F: FieldDescriptor):
    """The whole ring, whose HNF is the identity."""
    return IdealHNF(IntMatrix.identity(F.degree).entries)


def rational_ideal(m, F: FieldDescriptor):
    if m == 0:
        raise ValueError("zero ideal")
    x = (abs(m),) + (0,) * (F.degree - 1)
    return principal_ideal(x, F)


def ideal_product(a: IdealHNF, b: IdealHNF, F: FieldDescriptor):
    n = F.degree
    cols = []
    for u in a.basis_columns():
        for v in b.basis_columns():
            cols.append(element_mul(u, v, F))
    return _hnf_of_columns(cols, n)


def ideal_sum(a: IdealHNF, b: IdealHNF):
    n = a.dim
    return _hnf_of_columns(a.basis_columns() + b.basis_columns(), n)


def ideal_is_coprime(a: IdealHNF, b: IdealHNF, F: FieldDescriptor):
    # an ideal of Z[theta] has norm 1 exactly when it is the whole ring
    return ideal_sum(a, b).norm == 1


def conjugate_ideal(a: IdealHNF, F: FieldDescriptor):
    """Image under the nontrivial automorphism; quadratic fields only, but
    the unit ideal is its own conjugate in every degree."""
    if a.norm == 1:
        return a
    if F.degree != 2:
        raise ValueError("conjugation implemented for quadratic fields only")
    q1 = F.min_poly[1]
    # theta + sigma(theta) = -q1, so sigma(x + y*theta) = (x - q1*y, -y)
    cols = [(c[0] - q1 * c[1], -c[1]) for c in a.basis_columns()]
    return _hnf_of_columns(cols, 2)


def residue_transversal(a: IdealHNF):
    """All canonical representatives of Z^n modulo the ideal, lex order
    (last coordinate fastest).

    The box below the diagonal is already hnf-reduced, so it needs no
    normalization.  The count equals the norm; intended for moduli below
    the enumeration cap.
    """
    return list(product(*(range(a.hnf[i][i]) for i in range(a.dim))))


def element_is_coprime_to(x, a: IdealHNF, F: FieldDescriptor):
    return ideal_sum(principal_ideal(x, F), a).norm == 1
