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
character is then an eigenvector of every shift exactly when
x(z*b)_i = x(z)_i + x(b)_i (mod d'_i) for all classes z, b and factors i.
The code law (k1, q1)(k2, q2) = (wide_mult[k1][k2], q1 + q2 + shift[k1][k2])
is affine in q and x is linear in a code's exponent vector, so that defect
depends only on (k1, k2) and on the wraps of q mod Q's factors f_j: it
vanishes for all z, b exactly when x(wide_mult[k1][k2], shift[k1][k2]) =
x(k1, 0) + x(k2, 0) on the h_wide^2 pairs and x(f_j e_j) = 0 for each j.
That is h_wide^2 + h_wide + s projections, whatever |G|.  The degree-1
vector carries the degree-0 one in its first exterior coordinate and zeros
elsewhere, and the degree-raising image is the degree-0 vector times the
constant phi, so both reduce to the same check; the image is nonzero
exactly when phi is nonzero mod p.
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


def _code_law_is_linear(G: RayClassGroup, primed):
    """Whether the SNF coordinates are a homomorphism mod each primed factor:
    the h_wide^2 lifted products and the s wraps of Q, as in the module doc."""
    factors = G.unit_quotient.factors
    n = len(factors)
    lift = [G.code_coords(k, (0,) * n) for k in range(len(G.wide_reps))]

    def vanishes(x):
        return all(xi % dp == 0 for xi, dp in zip(x, primed))

    products_add = all(
        vanishes(tuple(a - b - c for a, b, c in zip(G.code_coords(k3, s), lift[k1], lift[k2])))
        for k1, (row, shifts) in enumerate(zip(G.wide_mult, G.shift))
        for k2, (k3, s) in enumerate(zip(row, shifts))
    )
    return products_add and all(
        vanishes(G.code_coords(0, tuple(f * (i == j) for i in range(n))))
        for j, f in enumerate(factors)
    )


def eigensystem_report(G: RayClassGroup, scan: TpScan):
    p = scan.p
    primed = tuple(_p_prime_part(d, p) for d in G.invariant_factors())
    matched = _code_law_is_linear(G, primed)
    phi = scan.certificate[0] if scan.certificate else None
    return EigenReport(
        p=p,
        extension_degree=multiplicative_order(p, lcm(*primed)),
        count=reduce(mul, primed, 1),
        matched_both_degrees=matched,
        degree_one_witness=phi is not None and any(v % p for v in phi.values),
        t_p=scan.t_p,
    )
