"""Narrow ray class groups from the exact sequence Q -> G -> Cl.

Q is the unit-congruence-and-sign group modulo the global unit image, Cl
the wide class group.  A class is a code (k, q): k indexes a wide-class
representative ideal, q is the image in Q of the principal part.  Products
add the q parts and the factor set shift[k1][k2], which records how
products of representatives fall back into the transversal, so the group
law needs no ideal arithmetic after construction and nothing per class.
"""

from typing import NamedTuple

from .abgroup import QuotientStructure, quotient_structure
from .classnumber import WideClassGroup, wide_class_reps
from .congruence import CongruenceSignGroup
from .errors import ValidationError
from .field import FieldDescriptor
from .galois import power
from .ideals import IdealHNF, conjugate_ideal, ideal_is_coprime, ideal_product, unit_ideal
from .intlinalg import IntMatrix
from .primes import prime_to_ideal
from .units import UnitImage, unit_image_in_modulus


class RayClassGroup(NamedTuple):
    """Narrow ray classes for a fixed field and modulus.

    Class i is the code (k, q) with i = k*|Q| + q read in mixed radix over
    Q's factors, the last one fastest, so the identity is 0.  wide_mult and
    shift are the wide class and the factor set of rep_k1 * rep_k2; wide is
    the field's WideClassGroup.
    """

    field: FieldDescriptor
    modulus: IdealHNF
    csg: CongruenceSignGroup
    unit_quotient: QuotientStructure
    wide_reps: tuple
    wide_mult: tuple
    shift: tuple
    snf: QuotientStructure
    wide: WideClassGroup

    @property
    def order(self):
        return len(self.wide_reps) * self.unit_quotient.order

    @property
    def identity(self):
        return 0

    def _decode(self, i):
        k, rest = divmod(i, self.unit_quotient.order)
        q = []
        for f in reversed(self.unit_quotient.factors):
            rest, x = divmod(rest, f)
            q.append(x)
        return k, tuple(reversed(q))

    def _encode(self, k, q):
        i = k
        for x, f in zip(q, self.unit_quotient.factors):
            i = i * f + x % f
        return i

    def multiply(self, i, j):
        (k1, q1), (k2, q2) = self._decode(i), self._decode(j)
        q = tuple(x + y + z for x, y, z in zip(q1, q2, self.shift[k1][k2]))
        return self._encode(self.wide_mult[k1][k2], q)

    def inverse(self, i):
        k, q = self._decode(i)
        k_inv = self.wide_mult[k].index(0)
        return self._encode(k_inv, tuple(-x - z for x, z in zip(q, self.shift[k][k_inv])))

    def power(self, i, e):
        return power(i, e % self.order, self.multiply, self.identity)

    def invariant_factors(self):
        return self.snf.factors

    def snf_coords(self, i):
        """Coordinates of class i in prod Z/d over the invariant factors."""
        k, q = self._decode(i)
        return self.snf.project(_exponents(k, q, len(self.wide_reps)))

    def class_of(self, a: IdealHNF):
        """Index of the class of an integral ideal coprime to the modulus."""
        if not ideal_is_coprime(a, self.modulus, self.field):
            raise ValidationError("ideal is not coprime to the modulus")
        F, csg, quotient = self.field, self.csg, self.unit_quotient
        k = self.wide.class_index(a, self.wide_reps)
        rep = self.wide_reps[k]
        delta = self.wide.generator(ideal_product(a, conjugate_ideal(rep, F), F))
        q_delta = _image(delta, csg, quotient)
        q_norm = _image(_rational(rep.norm, F), csg, quotient)
        return self._encode(k, _principal_part(q_delta, q_norm, quotient))

    def class_of_prime(self, v):
        return self.class_of(prime_to_ideal(v, self.field))


def _exponents(k, q, h):
    """Code (k, q) in Z^s x Z^(h-1): q, then the indicator of rep_k (none for k = 0)."""
    return tuple(q) + tuple(int(j == k) for j in range(1, h))


def _rational(n, F):
    return tuple(n * c for c in F.one())


def _image(x, csg, quotient):
    """The image in Q of x, an element coprime to the modulus."""
    return quotient.project(csg.element_vector(x))


def _principal_part(q_delta, q_norm, quotient):
    """Image in Q of a generator of rep^-1 * a, from the images of delta and
    N(rep), where (delta) = a * conj(rep).

    rep * conj(rep) = (N(rep)), so rep^-1 * a = (delta) / (N(rep)); the
    generator is well defined up to a global unit, which Q quotients away.
    """
    return tuple((x - y) % f for x, y, f in zip(q_delta, q_norm, quotient.factors))


def sequence_relations(quotient, wide_mult, shift):
    """Relations of Z^s x Z^(h-1) cutting out G: Q's factors, and
    c_k1 + c_k2 = c_(k1 k2) + shift[k1][k2] for every wide pair."""
    h = len(wide_mult)
    n = len(quotient.factors)
    zero = (0,) * n
    relations = [
        _exponents(0, tuple(f * (i == j) for i in range(n)), h)
        for j, f in enumerate(quotient.factors)
    ]
    for k1 in range(h):
        for k2 in range(h):
            c1, c2 = _exponents(k1, zero, h), _exponents(k2, zero, h)
            c3 = _exponents(wide_mult[k1][k2], shift[k1][k2], h)
            relations.append(tuple(x + y - z for x, y, z in zip(c1, c2, c3)))
    return relations


def _sequence_structure(quotient, relations):
    """G's Smith form, the quotient of Z^s x Z^(h-1) by sequence_relations.

    At h = 1 the relations are Q's factors on the diagonal and the one pair
    relation -shift[0][0], which ray_class_group checks to vanish: G is Q,
    on the identity transform, and needs no reduction."""
    n = len(relations[0])
    if n > len(quotient.factors):
        return quotient_structure(relations, [], n)
    return QuotientStructure(
        factors=quotient.factors,
        u_rows=IntMatrix.identity(n).entries,
        row_indices=tuple(range(n)),
    )


def ray_class_group(ui: UnitImage, wide: WideClassGroup = None):
    """Narrow ray class group of the modulus the unit image was built for.

    wide is the field's WideClassGroup, shared by its moduli, and a fresh
    one when None; a WideClassGroup of another field is refused.  Q is the
    unit image's cokernel.  What is left per modulus is the choice of
    representatives coprime to it and their images in Q.

    The code law is checked once here (ArithmeticError otherwise): the
    identity code fixes every class, and G's Smith form sends every
    relation of sequence_relations to zero.  The second check makes the
    SNF coordinates a homomorphism of the code law mod every invariant
    factor: a product adds the codes' exponent vectors, up to one pair
    relation and the wraps of q mod Q's factors.
    """
    csg = ui.csg
    F = csg.field
    modulus = csg.modulus
    if wide is None:
        wide = WideClassGroup(F)
    elif wide.field != F:
        raise ValueError(
            f"wide class group of {wide.field.label} handed to a modulus of {F.label}"
        )
    quotient = ui.quotient
    wide_reps = wide_class_reps(F, coprime_to=modulus, wide=wide)
    h = len(wide_reps)
    # shift[k1][k2] is the principal part of rep_k1 * rep_k2 over rep_k3,
    # k3 = wide_mult[k1][k2]: h^2 generators and h norms to project
    norms = [_image(_rational(r.norm, F), csg, quotient) for r in wide_reps]
    wide_mult, shift = [], []
    for a in wide_reps:
        ks = [wide.class_index(wide.product(a, b), wide_reps) for b in wide_reps]
        wide_mult.append(tuple(ks))
        deltas = [wide.quotient_generator(a, b, wide_reps[k]) for b, k in zip(wide_reps, ks)]
        shift.append(tuple(
            _principal_part(_image(delta, csg, quotient), norms[k], quotient)
            for delta, k in zip(deltas, ks)
        ))
    wide_mult, shift = tuple(wide_mult), tuple(shift)
    if any(wide_mult[0][k] != k or any(shift[0][k]) for k in range(h)):
        raise ArithmeticError("the identity code does not fix every class")
    relations = sequence_relations(quotient, wide_mult, shift)
    snf = _sequence_structure(quotient, relations)
    if snf.order != h * quotient.order:
        raise ArithmeticError("exact sequence order disagrees with h_wide * |Q|")
    if any(any(snf.project(rel)) for rel in relations):
        raise ArithmeticError("G's Smith form does not kill the sequence relations")

    return RayClassGroup(
        field=F,
        modulus=modulus,
        csg=csg,
        unit_quotient=quotient,
        wide_reps=wide_reps,
        wide_mult=wide_mult,
        shift=shift,
        snf=snf,
        wide=wide,
    )


def narrow_class_number(F: FieldDescriptor):
    """h_plus of the field: ray classes for the trivial modulus."""
    return ray_class_group(unit_image_in_modulus(F, unit_ideal(F))).order
