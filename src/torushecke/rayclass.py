"""Narrow ray class groups with exact coded-class arithmetic.

A class is stored as a code (k, q): k indexes a fixed wide-class
representative ideal, q is the image in Q of the principal part, where Q is
the quotient of the unit-congruence-and-sign group by the global unit
image.  Multiplication twists by a factor set recording how products of
wide representatives fall back into the chosen transversal, so the group
law never touches ideal arithmetic after construction.
"""

from dataclasses import dataclass
from itertools import product as iter_product

from .abgroup import PolycyclicClosure, QuotientStructure, closure_from_stream, quotient_structure
from .classnumber import wide_class_of, wide_class_reps
from .congruence import CongruenceSignGroup
from .errors import Inconclusive, ValidationError
from .field import FieldDescriptor
from .ideals import IdealHNF, conjugate_ideal, ideal_is_coprime, ideal_product, unit_ideal
from .primes import factor_prime, prime_to_ideal, _min_poly_disc
from .principal import FOUND, NOT_FOUND, principal_generator
from .units import UnitImage, unit_image_in_modulus


@dataclass(frozen=True, eq=False)
class RayClassGroup:
    """Narrow ray classes for a fixed field and modulus, fully enumerated."""

    field: FieldDescriptor
    modulus: IdealHNF
    csg: CongruenceSignGroup
    unit_quotient: QuotientStructure
    wide_reps: tuple
    codes: tuple
    code_index: dict
    mult_table: tuple
    inverse_table: tuple
    presentation: PolycyclicClosure
    snf: QuotientStructure

    @property
    def order(self):
        return len(self.codes)

    @property
    def identity(self):
        return 0

    def multiply(self, i, j):
        return self.mult_table[i][j]

    def inverse(self, i):
        return self.inverse_table[i]

    def power(self, i, e):
        if e < 0:
            return self.power(self.inverse(i), -e)
        acc = 0
        for _ in range(e):
            acc = self.multiply(acc, i)
        return acc

    def invariant_factors(self):
        return self.snf.factors

    def snf_coords(self, i):
        """Coordinates of class i in prod Z/d over the invariant factors."""
        return self.snf.project(self.presentation.dlog[self.codes[i]])

    def class_of(self, a: IdealHNF):
        """Index of the class of an integral ideal coprime to the modulus."""
        if not ideal_is_coprime(a, self.modulus, self.field):
            raise ValidationError("ideal is not coprime to the modulus")
        k = wide_class_of(a, self.wide_reps, self.field)
        q = _principal_part(a, k, self.wide_reps, self.csg, self.unit_quotient, self.field)
        return self.code_index[(k, q)]

    def class_of_prime(self, v):
        return self.class_of(prime_to_ideal(v, self.field))

    def representatives(self, prime_cap=200):
        """One integral ideal per class, coprime to the modulus.

        Swept from ascending unramified primes, then filled in by products;
        distinct codes certify pairwise inequivalence.
        """
        F = self.field
        reps = {0: unit_ideal(F)}
        disc = _min_poly_disc(F.min_poly)
        nm = self.modulus.norm
        ell = 2
        seen = 0
        while len(reps) < self.order and seen < prime_cap:
            if disc % ell and nm % ell:
                for v in factor_prime(ell, F):
                    i = self.class_of_prime(v)
                    if i not in reps:
                        reps[i] = prime_to_ideal(v, F)
            seen += 1
            ell = _next_prime(ell)
        # product fill: classes reachable from found ideals
        changed = True
        while len(reps) < self.order and changed:
            changed = False
            known = list(reps.items())
            for i, a in known:
                for j, b in known:
                    t = self.multiply(i, j)
                    if t not in reps:
                        reps[t] = ideal_product(a, b, F)
                        changed = True
        if len(reps) < self.order:
            raise ArithmeticError("representative sweep did not reach every class")
        return tuple(reps[i] for i in range(self.order))


def _next_prime(n):
    from .galois import is_prime

    n += 1
    while not is_prime(n):
        n += 1
    return n


def _principal_part(a, k, wide_reps, csg, quotient, F):
    """Image in Q of a generator of rep_k^-1 * a.

    rep_k * conj(rep_k) = (N(rep_k)), so rep_k^-1 * a = (delta) / (N(rep_k))
    with (delta) = a * conj(rep_k); the generator is well defined up to a
    global unit, which Q quotients away.
    """
    rep = wide_reps[k]
    if rep == unit_ideal(F):
        prod = a
        m = 1
    else:
        prod = ideal_product(a, conjugate_ideal(rep, F), F)
        m = rep.norm
    res = principal_generator(prod, F)
    if res.status == NOT_FOUND:
        raise ArithmeticError("wide class index disagreed with principality test")
    if res.status != FOUND:
        raise Inconclusive("principal generator search was inconclusive")
    q_delta = quotient.project(csg.element_vector(res.generator))
    if m == 1:
        return q_delta
    m_elt = (m,) + (0,) * (F.degree - 1)
    q_m = quotient.project(csg.element_vector(m_elt))
    return tuple((x - y) % f for x, y, f in zip(q_delta, q_m, quotient.factors))


def ray_class_group(ui: UnitImage):
    """Narrow ray class group of the modulus the unit image was built for."""
    csg = ui.csg
    F = csg.field
    modulus = csg.modulus
    quotient = quotient_structure(csg.full_relation_columns, ui.map_columns, csg.width)
    wide_reps = wide_class_reps(F, coprime_to=modulus)
    h = len(wide_reps)
    q_tuples = list(iter_product(*[range(f) for f in quotient.factors]))
    codes = tuple((k, qt) for k in range(h) for qt in q_tuples)
    code_index = {c: i for i, c in enumerate(codes)}

    wide_mult = []
    shift = []
    for k1 in range(h):
        row_m = []
        row_s = []
        for k2 in range(h):
            prod = ideal_product(wide_reps[k1], wide_reps[k2], F)
            k3 = wide_class_of(prod, wide_reps, F)
            row_m.append(k3)
            row_s.append(_principal_part(prod, k3, wide_reps, csg, quotient, F))
        wide_mult.append(tuple(row_m))
        shift.append(tuple(row_s))

    def code_mul(c1, c2):
        k1, q1 = c1
        k2, q2 = c2
        k3 = wide_mult[k1][k2]
        s = shift[k1][k2]
        q3 = tuple((x + y + z) % f for x, y, z, f in zip(q1, q2, s, quotient.factors))
        return (k3, q3)

    mult_table = tuple(
        tuple(code_index[code_mul(codes[i], codes[j])] for j in range(len(codes)))
        for i in range(len(codes))
    )
    identity_code = codes[0]
    if identity_code != (0, tuple(0 for _ in quotient.factors)):
        raise ArithmeticError("identity code is not first in code order")
    inverse_table = []
    for i in range(len(codes)):
        inv = next(j for j in range(len(codes)) if mult_table[i][j] == 0)
        inverse_table.append(inv)

    presentation = closure_from_stream(codes, code_mul, identity_code)
    snf = quotient_structure(presentation.relation_columns, [], presentation.ngens)
    if snf.order != len(codes):
        raise ArithmeticError("presentation order disagrees with code count")

    return RayClassGroup(
        field=F,
        modulus=modulus,
        csg=csg,
        unit_quotient=quotient,
        wide_reps=wide_reps,
        codes=codes,
        code_index=code_index,
        mult_table=mult_table,
        inverse_table=tuple(inverse_table),
        presentation=presentation,
        snf=snf,
    )


def narrow_class_number(F: FieldDescriptor):
    """h_plus of the field: ray classes for the trivial modulus."""
    return ray_class_group(unit_image_in_modulus(F, unit_ideal(F))).order
