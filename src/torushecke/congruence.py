"""The finite ambient group (O/N)^x cross {+-1}^r1 and discrete logs in it.

Residue units are enumerated from the HNF transversal box of the modulus and
closed into a polycyclic presentation, so any coprime element of the order
gets an exponent vector: residue coordinates followed by one mod-2 sign
coordinate per real place.  Unit images, ray class codes, and index
computations all reduce to lattice work on these vectors.
"""

from dataclasses import dataclass

from .abgroup import closure_from_stream
from .errors import CapExceeded
from .field import FieldDescriptor, element_mul, real_signs
from .ideals import IdealHNF, element_is_coprime_to, residue_transversal

RESIDUE_ENUMERATION_CAP = 10**5


@dataclass(frozen=True)
class CongruenceSignGroup:
    """Exponent-vector model of (O/N)^x cross the sign block."""

    modulus: IdealHNF
    field: FieldDescriptor
    residue_generators: tuple
    residue_dlog: dict
    full_relation_columns: tuple

    @property
    def n_residue_gens(self):
        return len(self.residue_generators)

    @property
    def n_sign_coords(self):
        return self.field.signature[0]

    @property
    def width(self):
        return self.n_residue_gens + self.n_sign_coords

    @property
    def residue_order(self):
        return len(self.residue_dlog)

    @property
    def order(self):
        return self.residue_order * 2 ** self.n_sign_coords

    def element_vector(self, x):
        """Exponent vector of a coprime element: residue dlog then sign bits."""
        res = self.modulus.reduce(x)
        if res not in self.residue_dlog:
            raise ValueError(f"element {x} is not coprime to the modulus")
        vec = list(self.residue_dlog[res])
        if self.n_sign_coords:
            for s in real_signs(x, self.field):
                vec.append(0 if s == 1 else 1)
        return tuple(vec)

    def residue_power_product(self, elements, exponents):
        """prod x_i^(e_i mod residue order) in O/N, by square-and-multiply.

        The elements must be coprime to the modulus.  The dlog table is never
        read, so the result can check it."""
        F = self.field
        reduce = self.modulus.reduce
        acc = reduce(F.one())
        for x, e in zip(elements, exponents):
            e %= self.residue_order
            base = reduce(x)
            while e:
                if e & 1:
                    acc = reduce(element_mul(acc, base, F))
                base = reduce(element_mul(base, base, F))
                e >>= 1
        return acc


def residue_sign_group(F: FieldDescriptor, modulus: IdealHNF, cap=RESIDUE_ENUMERATION_CAP):
    """Build the ambient group for a modulus; norms above the cap refuse."""
    nm = modulus.norm
    if nm > cap:
        raise CapExceeded(f"modulus norm {nm} exceeds enumeration cap")
    identity = modulus.reduce(F.one())

    def mul(x, y):
        return modulus.reduce(element_mul(x, y, F))

    if nm == 1:
        candidates = []
    else:
        candidates = [
            x
            for x in residue_transversal(modulus)
            if any(x) and element_is_coprime_to(x, modulus, F)
        ]
    closure = closure_from_stream(candidates, mul, identity)
    r1 = F.signature[0]
    k = closure.ngens
    cols = [rel + (0,) * r1 for rel in closure.relation_columns]
    for j in range(r1):
        cols.append((0,) * (k + j) + (2,) + (0,) * (r1 - j - 1))
    return CongruenceSignGroup(
        modulus=modulus,
        field=F,
        residue_generators=closure.generators,
        residue_dlog=closure.dlog,
        full_relation_columns=tuple(cols),
    )
