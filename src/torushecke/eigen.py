"""Eigensystem matching between the degree-0 and degree-1 shift actions.

Semisimple mod-p eigensystems of the class-shift operators correspond to
characters of the prime-to-p quotient of the narrow ray class group; they
are realized over F_{p^k} with k the multiplicative order of p modulo the
character group exponent.  Matching means every character admits an
eigenvector in both cohomological degrees with identical eigenvalues, and
a scanned degree-raising operator carries degree-0 eigenvectors to nonzero
degree-1 ones whenever the stacked-character rank is positive.
"""

from dataclasses import dataclass
from itertools import product as iter_product
from math import lcm

from .galois import extension_field, find_generator
from .hecke import TpScan
from .rayclass import RayClassGroup


def _p_prime_part(d, p):
    while d % p == 0:
        d //= p
    return d


def multiplicative_order(p, m):
    if m == 1:
        return 1
    if m % p == 0:
        raise ValueError("order undefined: p divides the modulus")
    k = 1
    x = p % m
    while x != 1:
        x = (x * p) % m
        k += 1
    return k


@dataclass(frozen=True)
class EigenReport:
    """Census of shift eigensystems and their cross-degree matching."""

    p: int
    extension_degree: int
    count: int
    matched_both_degrees: bool
    degree_one_witness: bool
    t_p: int


def eigensystem_report(G: RayClassGroup, scan: TpScan):
    p = scan.p
    factors = G.invariant_factors()
    primed = tuple(_p_prime_part(d, p) for d in factors)
    m = lcm(*primed) if primed else 1
    k = multiplicative_order(p, m)
    field = extension_field(p, k)
    gen = find_generator(field)
    zeta = gen ** ((field.order - 1) // m)
    zero = field.zero()

    h = G.order
    r = G.field.unit_rank
    coords = [G.snf_coords(i) for i in range(h)]
    weights = tuple(m // dp for dp in primed)
    gen_classes = [G.code_index[c] for c in G.presentation.generators]

    phi = scan.certificate[0] if scan.certificate else None
    lifted_phi = None
    if phi is not None:
        lifted_phi = tuple(field.element((val,) + (0,) * (k - 1)) for val in phi.values)

    def character_value(exps, class_idx):
        e = sum(c * x * w for c, x, w in zip(exps, coords[class_idx], weights)) % m
        return zeta**e

    count = 0
    matched = True
    witness = phi is not None
    for exps in iter_product(*[range(dp) for dp in primed]):
        count += 1
        vec0 = [character_value(exps, b) for b in range(h)]
        # degree 0: shift by each generator must scale by the character
        for z in gen_classes:
            ev = character_value(exps, z)
            for b in range(h):
                if vec0[G.multiply(z, b)] != ev * vec0[b]:
                    matched = False
        # degree 1: same eigensystem on each exterior coordinate block
        vec1 = [tuple(vec0[b] if j == 0 else zero for j in range(r)) for b in range(h)]
        for z in gen_classes:
            ev = character_value(exps, z)
            for b in range(h):
                moved = vec1[G.multiply(z, b)]
                scaled = tuple(ev * c for c in vec1[b])
                if moved != scaled:
                    matched = False
        if not any(c != zero for c in vec0):
            matched = False
        # degree-raising witness: a certificate operator sends the degree-0
        # eigenvector to phi tensor itself, nonzero whenever phi is
        if lifted_phi is not None:
            image = [tuple(vec0[b] * c for c in lifted_phi) for b in range(h)]
            if not any(any(c != zero for c in row) for row in image):
                witness = False
            for z in gen_classes:
                ev = character_value(exps, z)
                for b in range(h):
                    moved = image[G.multiply(z, b)]
                    scaled = tuple(ev * c for c in image[b])
                    if moved != scaled:
                        matched = False

    return EigenReport(
        p=p,
        extension_degree=k,
        count=count,
        matched_both_degrees=matched,
        degree_one_witness=witness,
        t_p=scan.t_p,
    )
