"""Unit group machinery: fundamental units, congruence unit subgroups, indices.

The fundamental unit of a real quadratic field is the product of the rho
multipliers once around the cycle of (1), from forms.py.

The subgroup of totally positive units congruent to 1 modulo an ideal is
computed as a kernel lattice: exponent vectors over (zeta, eps_1..eps_r) that
die in the congruence-sign group.  Its Hermite basis gives deterministic free
generators, the lattice index gives [O^x : E], and the Smith invariants of
the quotient give every delta_p at once.  The Smith form that yields the
kernel also yields the cokernel Q, which rayclass reads off the UnitImage.
E depends on the modulus only, so the UnitImage is E: its exponent vectors
are checked once, by sign parity and residue powers, when the image is
built, and every p reads the index and delta_p off the same record.  No
generator is built as a number (unit_power_product is a test oracle).
"""

from math import isqrt
from typing import NamedTuple

from .abgroup import KernelLattice, QuotientStructure, kernel_of_map
from .congruence import RESIDUE_ENUMERATION_CAP, CongruenceSignGroup, residue_sign_group
from .errors import TorsionObstruction
from .field import FieldDescriptor, element_mul, element_pow, element_unit_inverse
from .forms import power_basis, rho_cycles
from .ideals import IdealHNF


def fundamental_unit_real_quadratic(d):
    """Power-basis coordinates of the fundamental unit of Q(sqrt d).

    The order is Z[theta] with theta^2 + c1*theta + c0 = 0, the min_poly of
    real_quadratic_field: theta = (1+sqrt d)/2 for d = 1 mod 4, else sqrt d.
    The unit is the product of the rho multipliers once around the cycle
    of (1), the unit of forms.rho_cycles; no other cycle is walked.
    """
    if d <= 1 or isqrt(d) ** 2 == d:
        raise ValueError("d must exceed 1 and not be a perfect square")
    if d % 4 == 1:
        return power_basis(rho_cycles(d).unit, (-(d - 1) // 4, -1, 1))
    return power_basis(rho_cycles(4 * d).unit, (-d, 0, 1))


def unit_generators(F: FieldDescriptor):
    """(zeta, eps_1, ..., eps_r): generators of the unit group of the order."""
    return (F.torsion_generator,) + F.fundamental_units


def unit_power_product(exponents, F: FieldDescriptor):
    """zeta^a0 * prod eps_i^(a_i) for an exponent vector over unit_generators."""
    gens = unit_generators(F)
    acc = F.one()
    for g, e in zip(gens, exponents):
        if e == 0:
            continue
        base = g if e > 0 else element_unit_inverse(g, F)
        acc = element_mul(acc, element_pow(base, abs(e), F), F)
    return acc


class UnitImage(NamedTuple):
    """O^x inside the congruence-sign group of a modulus, and E(modulus), the
    totally positive units congruent to 1 mod it.

    kernel and the cokernel quotient come from one reduction of the map,
    whose columns are map_columns.  exponent_vectors are columns over
    (zeta, eps_1..eps_r) generating the free part of E, and its only
    representation.  torsion_order is the order of the torsion subgroup of
    E (trivial whenever the field has a real place).
    """

    csg: CongruenceSignGroup
    map_columns: tuple
    kernel: KernelLattice
    quotient: QuotientStructure
    exponent_vectors: tuple
    torsion_order: int

    @property
    def modulus(self):
        return self.csg.modulus

    @property
    def rank(self):
        return len(self.exponent_vectors)

    @property
    def index(self):
        return self.kernel.index

    @property
    def image_invariant_factors(self):
        return self.kernel.image_invariant_factors

    def delta_p(self, p):
        return sum(1 for d in self.image_invariant_factors if d % p == 0)


def unit_image_in_modulus(F: FieldDescriptor, modulus: IdealHNF, cap=RESIDUE_ENUMERATION_CAP):
    """O^x in the congruence-sign group of the modulus (residue_sign_group
    with cap), with the kernel lattice and the cokernel of that map, and E
    with verified generators.

    A generator's sign bits sum to even at every real place and its residue
    powers multiply to 1 in O/N (ArithmeticError otherwise).
    """
    csg = residue_sign_group(F, modulus, cap)
    gens = unit_generators(F)
    cols = tuple(csg.element_vector(g) for g in gens)
    kern, quotient = kernel_of_map(cols, csg.full_relation_columns, len(gens), csg.width)
    K = kern.hnf
    r = F.unit_rank
    zeta_entry = K[0][0]
    if F.torsion_order % zeta_entry:
        raise ArithmeticError("kernel misses zeta^w = 1; lattice is wrong")
    sign_bits = [c[csg.n_residue_gens :] for c in cols]
    one = modulus.reduce(F.one())
    vectors = []
    for j in range(1, r + 1):
        col = tuple(K[i][j] for i in range(r + 1))
        for place in range(csg.n_sign_coords):
            if sum(e * bits[place] for e, bits in zip(col, sign_bits)) % 2:
                raise ArithmeticError(f"generator {col} is not totally positive")
        if csg.residue_power_product(gens, col) != one:
            raise ArithmeticError(f"generator {col} is not 1 mod the modulus")
        vectors.append(col)
    return UnitImage(
        csg=csg,
        map_columns=cols,
        kernel=kern,
        quotient=quotient,
        exponent_vectors=tuple(vectors),
        torsion_order=F.torsion_order // zeta_entry,
    )


def e_units(ui: UnitImage, p=None):
    """E(modulus) for the prime p: the unit image ui itself, once p is checked.

    When p is given and E has torsion of order divisible by p the cohomology
    model downstream is invalid and the computation refuses.
    """
    if p is not None and ui.torsion_order % p == 0:
        raise TorsionObstruction(
            f"E(modulus) contains p-torsion (order {ui.torsion_order}, p={p}); "
            "the free cohomology model does not apply"
        )
    return ui


def compute_rp(F: FieldDescriptor, p):
    """Dimension of Hom(O^x, F_p): the unit rank, plus one if p | torsion order."""
    return F.unit_rank + (1 if F.torsion_order % p == 0 else 0)
