"""The finite ambient group (O/N)^x cross {+-1}^r1 and discrete logs in it.

O/N is the product of its local rings O/q over the primary components q of
N, one for each prime P containing N (CRT).  A prime component q = P is the
residue field O/P, whose unit group is cyclic of order N(P) - 1: it gets one
generator and its logs by Pohlig-Hellman, with no enumeration.  A proper
prime power q = P^k is closed into a polycyclic presentation from the
residues of its HNF box that lie outside P, so the work is the sum of the
norms of those components, not the norm of N.  Any element coprime to the
order then gets an exponent vector: the local coordinates of x mod q for
each component in turn, followed by one mod-2 sign coordinate per real
place.  The relation lattice is block diagonal over the components and the
sign block.  Unit images, ray class codes, and index computations all
reduce to lattice work on these vectors.
"""

import operator
from functools import partial
from typing import NamedTuple

from .abgroup import PolycyclicClosure, closure_from_stream
from .errors import CapExceeded
from .field import FieldDescriptor, element_mul, real_signs
from .galois import CyclicGroup, factor_int, find_generator, power
from .ideals import IdealHNF, ideal_product, ideal_sum, rational_ideal, residue_transversal
from .primes import PrimeIdeal, prime_ideals_over, prime_to_ideal, residue_field, residue_image

RESIDUE_ENUMERATION_CAP = 10**5


class BoxComponent(NamedTuple):
    """(O/q)^x for a proper prime power q, closed over the box of q."""

    primary: IdealHNF
    closure: PolycyclicClosure

    @property
    def ngens(self):
        return self.closure.ngens

    @property
    def order(self):
        return self.closure.order

    @property
    def relation_columns(self):
        return self.closure.relation_columns

    def log(self, x):
        local = self.closure.dlog.get(self.primary.reduce(x))
        if local is None:
            raise ValueError(f"element {x} is not coprime to the modulus")
        return local


class PrimeComponent(NamedTuple):
    """(O/P)^x for a prime component, cyclic of order N(P) - 1.

    residue maps O onto O/P (the integers mod ell when N(P) = ell), zero is
    its zero, and group is the unit group on its generator.  The one
    coordinate is the log to the generator; at order 1 there is none, as
    the closure of the one unit 1 has no generator.
    """

    primary: IdealHNF
    residue: object
    zero: object
    group: CyclicGroup

    @property
    def order(self):
        return self.group.order

    @property
    def ngens(self):
        return 1 if self.order > 1 else 0

    @property
    def relation_columns(self):
        return ((self.order,),) if self.order > 1 else ()

    def log(self, x):
        y = self.residue(x)
        if y == self.zero:
            raise ValueError(f"element {x} is not coprime to the modulus")
        return (self.group.log(y),) if self.order > 1 else ()


class CongruenceSignGroup(NamedTuple):
    """Exponent-vector model of (O/N)^x cross the sign block."""

    modulus: IdealHNF
    field: FieldDescriptor
    components: tuple
    full_relation_columns: tuple

    @property
    def n_residue_gens(self):
        return sum(c.ngens for c in self.components)

    @property
    def n_sign_coords(self):
        return self.field.signature[0]

    @property
    def width(self):
        return self.n_residue_gens + self.n_sign_coords

    @property
    def residue_order(self):
        out = 1
        for c in self.components:
            out *= c.order
        return out

    @property
    def order(self):
        return self.residue_order * 2 ** self.n_sign_coords

    def element_vector(self, x):
        """Exponent vector of a coprime element: local dlogs then sign bits."""
        vec = []
        for c in self.components:
            vec.extend(c.log(x))
        if self.n_sign_coords:
            for s in real_signs(x, self.field):
                vec.append(0 if s == 1 else 1)
        return tuple(vec)

    def residue_power_product(self, elements, exponents):
        """prod x_i^(e_i mod residue order) in O/N, by square-and-multiply.

        The elements must be coprime to the modulus.  No discrete log is
        read, so the result can check them."""
        F = self.field
        reduce = self.modulus.reduce

        def mul(x, y):
            return reduce(element_mul(x, y, F))

        acc = reduce(F.one())
        for x, e in zip(elements, exponents):
            acc = power(reduce(x), e % self.residue_order, mul, acc)
        return acc


def primary_components(F: FieldDescriptor, modulus: IdealHNF):
    """(v, q) for each prime v = (ell, g(theta)) containing the modulus, q
    its v-primary part; the primes come from the field's prime table.

    For ell^e exactly dividing N(m), m + (ell^e) is the product of the
    components over ell; when several primes over ell contain m it splits
    further into q = m + P^k, the first k at which it stops changing (then
    P^k vanishes in the local ring O/q, by Nakayama).  The component norms
    must multiply to N(m).
    """
    nm = modulus.norm
    if nm == 1:
        return []
    ells = factor_int(nm)
    out = []
    for ell, e in sorted(ells.items()):
        part = modulus if len(ells) == 1 else ideal_sum(modulus, rational_ideal(ell**e, F))
        cols = part.basis_columns()
        over = [
            v for v in prime_ideals_over(F, ell) if all(map(prime_to_ideal(v, F).contains, cols))
        ]
        if len(over) == 1:
            out.append((over[0], part))
            continue
        for v in over:
            P = q = prime_to_ideal(v, F)
            while True:
                nxt = ideal_sum(part, ideal_product(P, q, F))
                if nxt == q:
                    break
                q = nxt
            out.append((v, q))
    total = 1
    for _, q in out:
        total *= q.norm
    if total != nm:
        raise ArithmeticError(f"primary components have norm {total}, not N(m) = {nm}")
    return out


def _local_units(F: FieldDescriptor, P: IdealHNF, q: IdealHNF):
    """Polycyclic closure of (O/q)^x: the box residues of q outside P.

    O/q is local with residue field O/P, so exactly N(q) - N(q)/N(P) of its
    residues are units; the closure must reach that order."""
    identity = q.reduce(F.one())

    def mul(x, y):
        return q.reduce(element_mul(x, y, F))

    units = (x for x in residue_transversal(q) if any(P.reduce(x)))
    closure = closure_from_stream(units, mul, identity)
    if closure.order != q.norm - q.norm // P.norm:
        raise ArithmeticError(f"(O/q)^x closed to order {closure.order} at N(q) = {q.norm}")
    return closure


def _prime_units(v: PrimeIdeal, P: IdealHNF):
    """(O/P)^x from the residue field F_ell[t]/(g), theta -> t, where
    P = (ell, g(theta)) is the ideal of v.  At degree one the HNF diagonal
    of P is (ell, 1, ..., 1), the residue of x is the integer
    P.reduce(x)[0] and products are mod ell."""
    kappa = residue_field(v)
    if kappa.order != P.norm:
        raise ArithmeticError(f"residue field of order {kappa.order} at N(P) = {P.norm}")
    generator = find_generator(kappa)
    if v.f == 1:
        ell = v.ell

        def residue(x):
            return P.reduce(x)[0]

        def mul(a, b):
            return a * b % ell

        zero, one, generator = 0, 1, generator.encode()
    else:
        residue = partial(residue_image, v=v)
        mul = operator.mul
        zero, one = kappa.zero(), kappa.one()
    group = CyclicGroup(generator, factor_int(kappa.order - 1), mul, one)
    return PrimeComponent(primary=P, residue=residue, zero=zero, group=group)


def residue_sign_group(F: FieldDescriptor, modulus: IdealHNF, cap=RESIDUE_ENUMERATION_CAP):
    """Build the ambient group for a modulus.

    cap bounds the norm of each primary component, and a larger one refuses
    before any work; only the boxes of proper prime powers are enumerated."""
    pairs = primary_components(F, modulus)
    for _, q in pairs:
        if q.norm > cap:
            raise CapExceeded(
                f"primary component of norm {q.norm} exceeds enumeration cap {cap}"
            )
    # q lies in the prime of v, so it is that prime when the norms agree
    components = tuple(
        _prime_units(v, q)
        if q.norm == v.norm
        else BoxComponent(primary=q, closure=_local_units(F, prime_to_ideal(v, F), q))
        for v, q in pairs
    )
    r1 = F.signature[0]
    width = sum(c.ngens for c in components) + r1
    cols = []
    offset = 0
    for c in components:
        k = c.ngens
        for rel in c.relation_columns:
            cols.append((0,) * offset + rel + (0,) * (width - offset - k))
        offset += k
    for j in range(r1):
        cols.append((0,) * (offset + j) + (2,) + (0,) * (r1 - j - 1))
    return CongruenceSignGroup(
        modulus=modulus,
        field=F,
        components=components,
        full_relation_columns=tuple(cols),
    )
