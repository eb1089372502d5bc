"""The finite ambient group (O/N)^x cross {+-1}^r1 and discrete logs in it.

O/N is the product of its local rings O/q over the primary components q of
N, one for each prime P containing N (CRT).  Each (O/q)^x is closed into a
polycyclic presentation from the residues of the HNF box of q that lie
outside P, so the work is the sum of the component norms, not the norm of
N.  Any element coprime to the order then gets an exponent vector: the
local coordinates of x mod q for each component in turn, followed by one
mod-2 sign coordinate per real place.  The relation lattice is block
diagonal over the components and the sign block.  Unit images, ray class
codes, and index computations all reduce to lattice work on these vectors.
"""

from functools import partial
from typing import NamedTuple

from .abgroup import PolycyclicClosure, closure_from_stream
from .errors import CapExceeded
from .field import FieldDescriptor, element_mul, real_signs
from .galois import factor_int, power
from .ideals import IdealHNF, ideal_product, ideal_sum, rational_ideal, residue_transversal
from .primes import prime_ideals_over

RESIDUE_ENUMERATION_CAP = 10**5


class ResidueComponent(NamedTuple):
    """(O/q)^x for one primary component q of the modulus."""

    primary: IdealHNF
    closure: PolycyclicClosure


class CongruenceSignGroup(NamedTuple):
    """Exponent-vector model of (O/N)^x cross the sign block."""

    modulus: IdealHNF
    field: FieldDescriptor
    components: tuple
    full_relation_columns: tuple

    @property
    def n_residue_gens(self):
        return sum(c.closure.ngens for c in self.components)

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
            out *= c.closure.order
        return out

    @property
    def order(self):
        return self.residue_order * 2 ** self.n_sign_coords

    def element_vector(self, x):
        """Exponent vector of a coprime element: local dlogs then sign bits."""
        vec = []
        for c in self.components:
            local = c.closure.dlog.get(c.primary.reduce(x))
            if local is None:
                raise ValueError(f"element {x} is not coprime to the modulus")
            vec.extend(local)
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


def primary_components(F: FieldDescriptor, modulus: IdealHNF, primes_over=None):
    """(P, q) for each prime P containing the modulus, q its P-primary part.

    primes_over(ell) lists the (ideal, norm) of the primes over ell, as
    primes.prime_ideals_over(F, ell) does (the default); a caller with
    several moduli of F hands in one table so each ell is factored once.

    For ell^v exactly dividing N(m), m + (ell^v) is the product of the
    components over ell; when several primes over ell contain m it splits
    further into q = m + P^k, the first k at which it stops changing (then
    P^k vanishes in the local ring O/q, by Nakayama).  The component norms
    must multiply to N(m).
    """
    nm = modulus.norm
    if nm == 1:
        return []
    if primes_over is None:
        primes_over = partial(prime_ideals_over, F)
    ells = factor_int(nm)
    out = []
    for ell, v in sorted(ells.items()):
        part = modulus if len(ells) == 1 else ideal_sum(modulus, rational_ideal(ell**v, F))
        cols = part.basis_columns()
        over = [P for P, _ in primes_over(ell) if all(map(P.contains, cols))]
        if len(over) == 1:
            out.append((over[0], part))
            continue
        for P in over:
            q = P
            while True:
                nxt = ideal_sum(part, ideal_product(P, q, F))
                if nxt == q:
                    break
                q = nxt
            out.append((P, q))
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


def residue_sign_group(
    F: FieldDescriptor, modulus: IdealHNF, cap=RESIDUE_ENUMERATION_CAP, primes_over=None
):
    """Build the ambient group for a modulus.

    cap bounds the norm of each primary component, the largest box that is
    enumerated; a larger one refuses before any enumeration.  primes_over
    is handed to primary_components."""
    pairs = primary_components(F, modulus, primes_over)
    for _, q in pairs:
        if q.norm > cap:
            raise CapExceeded(
                f"primary component of norm {q.norm} exceeds enumeration cap {cap}"
            )
    components = tuple(
        ResidueComponent(primary=q, closure=_local_units(F, P, q)) for P, q in pairs
    )
    r1 = F.signature[0]
    width = sum(c.closure.ngens for c in components) + r1
    cols = []
    offset = 0
    for c in components:
        k = c.closure.ngens
        for rel in c.closure.relation_columns:
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
