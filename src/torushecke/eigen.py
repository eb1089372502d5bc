"""Eigensystem matching between the degree-0 and degree-1 shift actions.

Semisimple mod-p eigensystems of the class-shift operators correspond to
characters of the prime-to-p quotient of the narrow ray class group; they
are realized over F_{p^k} with k the multiplicative order of p modulo the
character group exponent m.  Matching means every character admits an
eigenvector in both cohomological degrees with identical eigenvalues, and
a scanned degree-raising operator carries degree-0 eigenvectors to nonzero
degree-1 ones whenever the stacked-character rank is positive.

The census runs in exponent arithmetic.  With invariant factors d_i and
prime-to-p parts d'_i, the character with exponents c sends a class with
SNF coordinates x to zeta^(sum c_i x_i m/d'_i), and zeta has order exactly
m, so two values agree exactly when their exponents agree mod m.  Every
character is then an eigenvector of every generator shift exactly when
x(z*b)_i = x(z)_i + x(b)_i (mod d'_i) for each generator z of the exact
sequence Q -> G -> Cl, class b and factor i.  The degree-1 vector carries
the degree-0 one in its first exterior coordinate and zeros elsewhere, and
the degree-raising image is the degree-0 vector times the constant phi, so
both reduce to the same check; the image is nonzero exactly when phi is
nonzero mod p.
"""

from functools import reduce
from math import lcm
from operator import mul
from typing import NamedTuple

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


class EigenReport(NamedTuple):
    """Census of shift eigensystems and their cross-degree matching."""

    p: int
    extension_degree: int
    count: int
    matched_both_degrees: bool
    degree_one_witness: bool
    t_p: int


def eigensystem_report(G: RayClassGroup, scan: TpScan):
    p = scan.p
    primed = tuple(_p_prime_part(d, p) for d in G.invariant_factors())
    coords = [G.snf_coords(i) for i in range(G.order)]
    # the shift by z scales every character by its value at z
    matched = all(
        (xzb - xz - xb) % dp == 0
        for z in G.generators
        for b in range(G.order)
        for xzb, xz, xb, dp in zip(coords[G.multiply(z, b)], coords[z], coords[b], primed)
    )
    phi = scan.certificate[0] if scan.certificate else None
    return EigenReport(
        p=p,
        extension_degree=multiplicative_order(p, lcm(*primed)),
        count=reduce(mul, primed, 1),
        matched_both_degrees=matched,
        degree_one_witness=phi is not None and any(v % p for v in phi.values),
        t_p=scan.t_p,
    )
