"""Splitting of rational primes in Z[theta] and reduction to residue fields.

factor_prime handles only primes coprime to disc(min_poly); that single
exclusion removes both ramified primes and primes dividing the index of
Z[theta] in the maximal order, so factoring the minimal polynomial mod ell
tells the whole story there.  The ideal listing (prime_ideals_over) takes
every ell: the maximal ideals of Z[theta] over ell are read off the same
factorization, multiplicities aside, and the residue maps hold for each of
them, as Z[theta]/(ell, g(theta)) = F_ell[t]/(g) for any irreducible g.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import RamifiedOrIndexPrime
from .field import FieldDescriptor, poly_discriminant, reduce_mod_min_poly
from .galois import FqField, factor_poly_mod_ell, poly_trim
from .ideals import ideal_from_generators


class PrimeIdeal(NamedTuple):
    """A prime of Z[theta] over ell, cut out by (ell, g_poly(theta))."""

    ell: int
    f: int
    g_poly: tuple

    @property
    def norm(self):
        return self.ell ** self.f

    def label(self):
        return f"({self.ell}, deg {self.f})"


@lru_cache(maxsize=None)
def _min_poly_disc(min_poly):
    return poly_discriminant(min_poly)


@lru_cache(maxsize=None)
def factor_prime(ell, F: FieldDescriptor):
    """Primes of Z[theta] above ell, in (residue degree, balanced coeff) order."""
    disc = _min_poly_disc(F.min_poly)
    if disc % ell == 0:
        raise RamifiedOrIndexPrime(
            f"{ell} divides disc(min_poly) = {disc}; excluded from prime handling"
        )
    fbar = poly_trim(tuple(c % ell for c in F.min_poly))
    factors = factor_poly_mod_ell(fbar, ell)
    out = []
    for g, mult in factors:
        if mult != 1:
            raise ArithmeticError("repeated factor despite ell coprime to disc")
        out.append(PrimeIdeal(ell=ell, f=len(g) - 1, g_poly=g))
    return tuple(out)


def _prime_ideal(ell, g_poly, F: FieldDescriptor):
    # g_poly can have degree = n for inert primes; reduce, never truncate
    ell_elt = (ell,) + (0,) * (F.degree - 1)
    return ideal_from_generators([ell_elt, reduce_mod_min_poly(g_poly, F.min_poly)], F)


def prime_to_ideal(v: PrimeIdeal, F: FieldDescriptor):
    return _prime_ideal(v.ell, v.g_poly, F)


def prime_ideals_over(F: FieldDescriptor, ell):
    """(ideal, norm, g) for every prime of Z[theta] over ell, ramified and
    index primes included.

    Z[theta]/(ell) = F_ell[x]/(min_poly mod ell), so its maximal ideals are
    the (ell, g(theta)) for the distinct monic irreducible factors g, in
    factor_prime's order; the residue field of each is F_ell[t]/(g).
    """
    return [
        (_prime_ideal(ell, g, F), ell ** (len(g) - 1), g)
        for g, _ in factor_poly_mod_ell(F.min_poly, ell)
    ]


@lru_cache(maxsize=None)
def residue_field(v: PrimeIdeal):
    """kappa_v presented as F_ell[t] / (g_poly), so theta maps to t."""
    return FqField(v.ell, v.f, v.g_poly)


def residue_image(x, v: PrimeIdeal):
    """Reduction O_F -> kappa_v sending theta to the class of t."""
    kappa = residue_field(v)
    return kappa.element(tuple(c % v.ell for c in x))
