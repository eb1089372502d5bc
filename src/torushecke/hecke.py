"""Derived Hecke operators on torus cohomology and the scans they support.

Cohomology in degree j is one exterior-power block per narrow ray class;
an operator is a finitely supported sum of (shift, wedge) terms and acts by
(H c)(b) = sum_z omega_z ^ c(z * b).  Degree-0 operators permute the class
blocks (with the inverse-shift convention for indicators), degree-1
operators wedge in the character of a scanned prime, and the rank of the
stacked characters on the congruence-unit kernel is the invariant the
verification pipeline is after.  That rank is bounded above by the rank of
E's exponent vectors mod p, which is checked to be r_p - delta_p, so every
scan stops at a target it has proved.
"""

from typing import NamedTuple

from .errors import BudgetShortfall
from .exterior import MultiVector, wedge
from .field import FieldDescriptor
from .fplinalg import FpRankAccumulator, fp_rank
from .galois import find_generator, pth_character, primes_stream
from .ideals import IdealHNF, unit_ideal
from .primes import PrimeIdeal, _min_poly_disc, factor_prime, residue_field, residue_image
from .rayclass import RayClassGroup
from .units import UnitImage, compute_rp, unit_generators

DEFAULT_BUDGET = 50  # scan primes a scan reads before it falls short


class CohomologyClass(NamedTuple):
    """One multivector block per narrow ray class, all of one degree."""

    p: int
    rank: int
    degree: int
    components: tuple

    @staticmethod
    def zero(p, rank, degree, size):
        z = MultiVector.zero(p, rank, degree)
        return CohomologyClass(p, rank, degree, (z,) * size)

    @staticmethod
    def indicator(p, rank, a, size):
        comps = [MultiVector.zero(p, rank, 0) for _ in range(size)]
        comps[a] = MultiVector.scalar(p, rank, 1)
        return CohomologyClass(p, rank, 0, tuple(comps))

    def add(self, other):
        if (self.p, self.rank, self.degree) != (other.p, other.rank, other.degree):
            raise ValueError("mixed cohomology blocks")
        comps = tuple(a.add(b) for a, b in zip(self.components, other.components))
        return CohomologyClass(self.p, self.rank, self.degree, comps)

    def scale(self, c):
        return CohomologyClass(
            self.p, self.rank, self.degree, tuple(m.scale(c) for m in self.components)
        )

    def is_zero(self):
        return all(m.is_zero() for m in self.components)

    def flatten(self):
        return tuple(c for m in self.components for c in m.coords)


class HeckeElement(NamedTuple):
    """Sum of (shift class, wedge multivector) terms, homogeneous in degree."""

    p: int
    rank: int
    degree: int
    terms: tuple

    @staticmethod
    def shift(z, p, rank):
        return HeckeElement(p, rank, 0, ((z, MultiVector.scalar(p, rank, 1)),))

    def is_zero(self):
        return all(om.is_zero() for _, om in self.terms)


def _accumulate_terms(p, rank, degree, pairs):
    acc = {}
    for z, om in pairs:
        if z in acc:
            acc[z] = acc[z].add(om)
        else:
            acc[z] = om
    terms = tuple((z, acc[z]) for z in sorted(acc) if not acc[z].is_zero())
    return HeckeElement(p, rank, degree, terms)


def hecke_multiply(h1: HeckeElement, h2: HeckeElement, G: RayClassGroup):
    """Convolution product: shifts compose in the group, forms wedge."""
    if (h1.p, h1.rank) != (h2.p, h2.rank):
        raise ValueError("mixed operator algebras")
    pairs = []
    for z1, om1 in h1.terms:
        for z2, om2 in h2.terms:
            pairs.append((G.multiply(z1, z2), wedge(om1, om2)))
    return _accumulate_terms(h1.p, h1.rank, h1.degree + h2.degree, pairs)


def hecke_apply(h: HeckeElement, c: CohomologyClass, G: RayClassGroup):
    """(H c)(b) = sum_z omega_z ^ c(z * b)."""
    if (h.p, h.rank) != (c.p, c.rank):
        raise ValueError("operator and class live on different models")
    size = len(c.components)
    degree = h.degree + c.degree
    comps = []
    for b in range(size):
        acc = MultiVector.zero(c.p, c.rank, degree)
        for z, om in h.terms:
            acc = acc.add(wedge(om, c.components[G.multiply(z, b)]))
        comps.append(acc)
    return CohomologyClass(c.p, c.rank, degree, tuple(comps))


class Functional(NamedTuple):
    """Character values of one scanned prime on the congruence-unit kernel."""

    prime: PrimeIdeal
    values: tuple
    generator_encoding: int


def generator_characters(v: PrimeIdeal, p: int, F: FieldDescriptor):
    """(g, row): the minimal generator g of kappa_v^x and the p-th power
    characters of unit_generators(F) under it, x -> dlog x^((q-1)/p).
    chi(zeta) is 0 when p does not divide the torsion order w (zeta^w = 1)."""
    g = find_generator(residue_field(v))
    zeta, *eps = unit_generators(F)
    chi = 0 if F.torsion_order % p else pth_character(residue_image(zeta, v), p, g)
    return g, (chi,) + tuple(pth_character(residue_image(u, v), p, g) for u in eps)


def _functional(v: PrimeIdeal, g, row, E, p: int):
    """The character of v with generator g on E's generators.

    A character is a homomorphism, so its value on a generator is its
    exponent vector dotted with row, the characters of the unit generators.
    """
    values = tuple(sum(e * x for e, x in zip(col, row)) % p for col in E.exponent_vectors)
    return Functional(prime=v, values=values, generator_encoding=g.encode())


def unit_functional(v: PrimeIdeal, E, p: int):
    """Mod-p character of kappa_v^x evaluated on the kernel generators."""
    kappa = residue_field(v)
    if (kappa.order - 1) % p:
        raise ValueError(f"{v.label()} is not a degree-raising prime for p = {p}")
    g, row = generator_characters(v, p, E.csg.field)
    return _functional(v, g, row, E, p)


def t1_primes(F: FieldDescriptor, modulus: IdealHNF, p: int, residue_degree=None):
    """Ascending stream of scan primes (over one ell, in factor_prime's
    order): coprime to p, the modulus, and disc(min_poly), with p dividing
    the residue norm minus one.  With residue_degree f, only primes of
    degree f, and an ell with ell^f != 1 mod p is skipped unfactored (it
    has no such prime)."""
    nm = modulus.norm
    disc = _min_poly_disc(F.min_poly)
    for ell in primes_stream():
        if nm % ell == 0 or ell == p or disc % ell == 0:
            continue
        if residue_degree is not None and pow(ell, residue_degree, p) != 1:
            continue
        for v in factor_prime(ell, F):
            if (residue_degree is None or v.f == residue_degree) and (v.norm - 1) % p == 0:
                yield v


class ScanRows:
    """The residue-degree-1 scan primes of (F, p) with their characters.

    An ascending list of (v, g, row), row = generator_characters(v, p, F)
    on unit_generators(F), extended on demand one prime at a time.  It
    depends on F and p only, so every modulus of F reads the same list
    (compute_tp skips the v over primes dividing its norm).  The primes are
    t1_primes of the unit ideal with residue degree 1.  A prime joins the
    list only once its row is built; until then it is held as pending, so a
    construction that raises leaves the list as it was, and the next reader
    meets the same error.
    """

    def __init__(self, F: FieldDescriptor, p: int):
        self.field = F
        self.p = p
        self._rows = []
        self._primes = t1_primes(F, unit_ideal(F), p, residue_degree=1)
        self._pending = None

    def _grow(self):
        if self._pending is None:
            self._pending = next(self._primes)
        g, row = generator_characters(self._pending, self.p, self.field)
        self._rows.append((self._pending, g, row))
        self._pending = None

    def walk(self, norm: int):
        """(v, g, row) in ascending order, skipping the v over primes
        dividing norm."""
        i = 0
        while True:
            if i == len(self._rows):
                self._grow()
            entry = self._rows[i]
            i += 1
            if norm % entry[0].ell:
                yield entry


def scan_t1(E: UnitImage, p: int, budget: int):
    """At most budget (prime, functional) pairs in canonical scan order."""
    count = 0
    for v in t1_primes(E.csg.field, E.modulus, p):
        if count >= budget:
            return
        yield v, unit_functional(v, E, p)
        count += 1


def _greedy_span(records, row_of, p, width, target, budget):
    """Read records off a lazy iterator until the F_p span of their rows
    reaches target or budget records are read; nothing is read once it has.
    Returns (rank, every record read, those whose row enlarged the span)."""
    acc = FpRankAccumulator(p, width)
    visited = []
    spanning = []
    while acc.rank < target and len(visited) < budget:
        record = next(records)
        visited.append(record)
        if acc.add(row_of(record)):
            spanning.append(record)
    return acc.rank, tuple(visited), tuple(spanning)


class TpScan(NamedTuple):
    """Outcome of stacking scanned characters against the rank target."""

    p: int
    t_p: int
    target: int
    certificate: tuple
    visited: tuple

    @property
    def consumed(self):
        return len(self.visited)

    @property
    def shortfall(self):
        """The budget ran out with the rank still below target."""
        return self.t_p < self.target

    def require_target(self):
        """Raise BudgetShortfall if the budget ran out below the target rank."""
        if self.shortfall:
            raise BudgetShortfall(
                f"rank {self.t_p} below target {self.target} after {self.consumed} primes"
            )


def compute_tp(E: UnitImage, p: int, budget: int = DEFAULT_BUDGET, rows: ScanRows = None):
    """Rank of the stacked degree-1 characters, from residue-degree-1 primes.

    The primes and their characters on the unit generators come from rows,
    the ScanRows of (F, p) shared by the moduli of F, or a fresh one when
    rows is None; the scan walks them, skips those over primes dividing
    N(m), and dots each row with E's exponent vectors.

    A character is linear on E's exponent vectors and sees zeta only when p
    divides w, so t_p is at most the rank of those coordinates mod p; that
    rank must be r_p - delta_p (ArithmeticError otherwise), which ties the
    kernel lattice to the image invariants and makes the target a proved
    upper bound.  The scan stops there, so a zero target visits no prime.
    """
    F = E.csg.field
    target = compute_rp(F, p) - E.delta_p(p)
    first = 1 if F.torsion_order % p else 0  # drop zeta unless p | w
    if fp_rank([col[first:] for col in E.exponent_vectors], p) != target:
        raise ArithmeticError("rank of E mod p disagrees with r_p - delta_p")
    if rows is None:
        rows = ScanRows(F, p)
    elif rows.p != p or rows.field != F:
        raise ValueError(
            f"scan rows of {rows.field.label}, p = {rows.p} handed to {F.label}, p = {p}"
        )
    phis = (_functional(v, g, row, E, p) for v, g, row in rows.walk(E.modulus.norm))
    t_p, visited, certificate = _greedy_span(
        phis, lambda phi: phi.values, p, F.unit_rank, target, budget
    )
    return TpScan(
        p=p,
        t_p=t_p,
        target=target,
        certificate=certificate,
        visited=visited,
    )


class SpanningScan(NamedTuple):
    """Primes whose characters span the dual of the global units mod p."""

    primes: tuple
    rows: tuple
    target: int

    @property
    def shortfall(self):
        """The budget ran out with fewer spanning rows than target: each row
        enlarged the span."""
        return len(self.rows) < self.target


def spanning_set(F: FieldDescriptor, p: int, budget: int = 25):
    """Greedy spanning set of character rows on the global unit generators.

    Rows live on (torsion if p divides its order, then fundamental) unit
    generators, so the matrix is square of size r_p exactly when the scan
    completes; scanning runs over all residue degrees for the trivial
    modulus.
    """
    modulus = unit_ideal(F)
    first = 1 if F.torsion_order % p else 0  # drop zeta unless p | w
    target = compute_rp(F, p)
    if len(unit_generators(F)) - first != target:
        raise ArithmeticError("generator count disagrees with the rank target")
    rows = ((v, generator_characters(v, p, F)[1][first:]) for v in t1_primes(F, modulus, p))
    _, _, spanning = _greedy_span(rows, lambda vr: vr[1], p, target, target, budget)
    return SpanningScan(
        primes=tuple(v for v, _ in spanning),
        rows=tuple(row for _, row in spanning),
        target=target,
    )


class PsiReport(NamedTuple):
    """Dimension bookkeeping for the degree-raising pairing."""

    p: int
    h_plus: int
    r: int
    r_p: int
    delta_p: int
    t_p: int
    index: int
    hypothesis: bool
    dim_H0: int
    dim_H1: int
    dim_domain: int
    dim_image: int
    is_isomorphism: bool
    scan: TpScan


def psi_report(G: RayClassGroup, E: UnitImage, scan: TpScan):
    """Measure the pairing H^1-block.

    The domain is one copy of the stacked-character span per class; the
    image is spanned by H_phi 1_a, which is phi in the one block z^-1 * a
    (z the identity shift of H_phi).  The identity is checked to fix every
    code, wide_mult[0][k] = k and shift[0][k] = 0 (ArithmeticError
    otherwise), so every block sees the same rows and the image dimension
    is h_plus times the F_p rank of the visited rows.  Both ranks are
    reported as measured; the verify checks compare them with
    h_plus * t_p.
    """
    scan.require_target()
    codes = enumerate(zip(G.wide_mult[0], G.shift[0]))
    fixed = all(k == j and not any(s) for j, (k, s) in codes)
    if not fixed or G.inverse(G.identity) != G.identity:
        raise ArithmeticError("the identity shift does not fix every class code")
    p = scan.p
    r = G.field.unit_rank
    r_p = compute_rp(G.field, p)
    h = G.order
    hypothesis = E.index % p != 0
    dim_H0 = h
    dim_H1 = h * r
    dim_domain = h * scan.t_p
    dim_image = h * fp_rank([phi.values for phi in scan.visited], p)
    return PsiReport(
        p=p,
        h_plus=h,
        r=r,
        r_p=r_p,
        delta_p=r_p - scan.target,
        t_p=scan.t_p,
        index=E.index,
        hypothesis=hypothesis,
        dim_H0=dim_H0,
        dim_H1=dim_H1,
        dim_domain=dim_domain,
        dim_image=dim_image,
        is_isomorphism=(dim_image == dim_H1 and dim_domain == dim_image),
        scan=scan,
    )


def degree_two_pullback(v: PrimeIdeal, G: RayClassGroup, p: int):
    """Degree-2 block of the derived action after restriction: always zero.

    The obstruction class lives on the cyclic group of order n = q - 1 and
    is the image of the integer carry cocycle; restricting along Z -> Z/n
    trivializes it, and the trivializing cochain is a floor function.  The
    identity is checked on a window before the zero block is returned.
    """
    kappa = residue_field(v)
    n = kappa.order - 1
    for a in range(-n, 2 * n + 1, max(1, n // 7)):
        for b in range(-n, 2 * n + 1, max(1, n // 7)):
            carry = (a % n + b % n) // n
            resolved = (a + b) // n - a // n - b // n
            if carry != resolved:
                raise ArithmeticError("carry cocycle failed to trivialize")
    return CohomologyClass.zero(p, G.field.unit_rank, 2, G.order)
