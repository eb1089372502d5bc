"""Finite abelian group machinery over integer exponent lattices.

A concrete abelian group given by generators and a multiplication callable
is closed into a polycyclic normal form: generator i gets a relative order
m_i over the subgroup of its predecessors, every element gets a unique
exponent vector in the box prod [0, m_i), and the relations span a full-rank
sublattice L of Z^k with Z^k / L isomorphic to the group.  Everything
downstream (quotients, kernels, discrete logs) is Smith or Hermite normal
form on that lattice.
"""

from typing import NamedTuple

from .intlinalg import IntMatrix, hnf_columns, hnf_invariant_factors, smith_normal_form


class PolycyclicClosure(NamedTuple):
    """Enumerated abelian group with discrete logs over adjoined generators."""

    generators: tuple
    dlog: dict
    relative_orders: tuple
    relation_columns: tuple

    @property
    def order(self):
        n = 1
        for m in self.relative_orders:
            n *= m
        return n

    @property
    def ngens(self):
        return len(self.relative_orders)


def closure_from_stream(candidates, mul, identity):
    """Polycyclic closure of a finite abelian group from a candidate stream.

    Candidates already inside the span are skipped; each adjoined generator
    g_i gets its relative order m_i = min{e : g_i^e in previous span}, and
    every element a unique exponent vector in the box prod [0, m_i).  mul
    must be commutative/associative and elements hashable.  Total cost is
    one membership probe per candidate plus O(|G|) multiplications.
    """
    gens = []
    dlog = {identity: ()}
    relations = []
    rel_orders = []
    for cand in candidates:
        if cand in dlog:
            continue
        i = len(gens)
        gens.append(cand)
        dlog = {h: vec + (0,) for h, vec in dlog.items()}
        e = 1
        power = cand
        while power not in dlog:
            e += 1
            power = mul(power, cand)
        landing = dlog[power]
        rel = [0] * (i + 1)
        rel[i] = e
        for j in range(i + 1):
            rel[j] -= landing[j]
        relations.append(tuple(rel))
        rel_orders.append(e)
        current = list(dlog.items())
        ga = identity
        for a in range(1, e):
            ga = mul(ga, cand)
            for h, vec in current:
                v = list(vec)
                v[i] = a
                dlog[mul(ga, h)] = tuple(v)
    k = len(gens)
    dlog = {h: vec + (0,) * (k - len(vec)) for h, vec in dlog.items()}
    relations = [tuple(rel) + (0,) * (k - len(rel)) for rel in relations]
    return PolycyclicClosure(
        generators=tuple(gens),
        dlog=dlog,
        relative_orders=tuple(rel_orders),
        relation_columns=tuple(relations),
    )


class ExponentGroup(NamedTuple):
    """Z^k modulo a full-rank relation lattice, in column HNF."""

    ngens: int
    hnf: tuple

    @classmethod
    def from_columns(cls, columns, k):
        if k == 0:
            return cls(ngens=0, hnf=())
        h = hnf_columns(list(columns), k)
        return cls(ngens=k, hnf=tuple(tuple(r) for r in h))

    @property
    def order(self):
        n = 1
        for i in range(self.ngens):
            n *= self.hnf[i][i]
        return n

    def invariant_factors(self):
        return hnf_invariant_factors(self.hnf)


class QuotientStructure(NamedTuple):
    """Z^k / (relations + subgroup) with a computable projection map."""

    factors: tuple
    u_rows: tuple
    row_indices: tuple

    @property
    def order(self):
        n = 1
        for d in self.factors:
            n *= d
        return n

    def project(self, vec):
        out = []
        for pos, i in enumerate(self.row_indices):
            row = self.u_rows[i]
            out.append(sum(row[j] * vec[j] for j in range(len(vec))) % self.factors[pos])
        return tuple(out)


def _smith_of_columns(columns, k):
    """Smith form (U, D, V) of the k-row matrix whose columns are given."""
    return smith_normal_form(IntMatrix.from_rows([[col[i] for col in columns] for i in range(k)]))


def _quotient_from_smith(u, d, k):
    """Z^k modulo the column span of a k-row M, read off U*M*V = D."""
    factors = []
    row_indices = []
    for i in range(k):
        di = d[i, i] if i < d.cols else 0
        if di == 0:
            raise ArithmeticError("quotient is infinite; relation lattice not full rank")
        if di > 1:
            factors.append(di)
            row_indices.append(i)
    u_rows = tuple(tuple(u[i, j] for j in range(k)) for i in range(k))
    return QuotientStructure(
        factors=tuple(factors), u_rows=u_rows, row_indices=tuple(row_indices)
    )


def quotient_structure(relation_columns, extra_columns, k):
    """Structure of Z^k modulo the lattice spanned by all given columns."""
    if k == 0:
        return QuotientStructure(factors=(), u_rows=(), row_indices=())
    u, d, _ = _smith_of_columns(list(relation_columns) + list(extra_columns), k)
    return _quotient_from_smith(u, d, k)


class KernelLattice(NamedTuple):
    """Kernel of Z^s -> Z^k / relations, as a column-HNF sublattice of Z^s."""

    hnf: tuple
    index: int
    image_invariant_factors: tuple


def kernel_of_map(map_columns, relation_columns, s, k):
    """(kernel lattice, cokernel) of the map sending basis vector j to
    map_columns[j], from one Smith form U*[relations | map]*V = D.

    map_columns live in Z^k; the target group is Z^k modulo the relation
    columns.  The null columns of V, projected onto the map coordinates,
    span exactly the exponent vectors that die in the group.  U and D give
    the cokernel Z^k / (relations + image) as a QuotientStructure, the one
    quotient_structure(relation_columns, map_columns, k) reads.
    """
    if k == 0:
        # trivial target: everything is in the kernel
        hnf = tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s))
        kernel = KernelLattice(hnf=hnf, index=1, image_invariant_factors=())
        return kernel, QuotientStructure(factors=(), u_rows=(), row_indices=())
    n = len(relation_columns)
    u, d, v = _smith_of_columns(list(relation_columns) + list(map_columns), k)
    quotient = _quotient_from_smith(u, d, k)
    # D has rank k (the quotient is finite), so V's columns k onward span
    # the integer kernel of [relations | map]
    projected = [tuple(v[n + i, c] for i in range(s)) for c in range(k, n + s)]
    hnf = tuple(tuple(r) for r in hnf_columns(projected, s))
    index = 1
    for i in range(s):
        index *= hnf[i][i]
    inv = hnf_invariant_factors(hnf)
    kernel = KernelLattice(hnf=hnf, index=index, image_invariant_factors=inv)
    return kernel, quotient
