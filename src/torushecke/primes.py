"""Splitting of rational primes in Z[theta] and reduction to residue fields.

prime_ideals_over is the one prime table: each (field, ell) is factored
once, for the moduli, the residue groups, the wide class group and the
scan alike.  It takes every ell: the maximal ideals of Z[theta] over ell
are read off the factorization of min_poly mod ell, multiplicities aside,
and the residue maps hold for each of them, as Z[theta]/(ell, g(theta)) =
F_ell[t]/(g) for any irreducible g.  factor_prime, the scan's view, takes
only primes coprime to disc(min_poly); that single exclusion removes both
ramified primes and primes dividing the index of Z[theta] in the maximal
order, so the factorization tells the whole story there.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import RamifiedOrIndexPrime
from .field import FieldDescriptor, poly_discriminant, reduce_mod_min_poly
from .galois import FqField, balanced_coeffs, factor_poly_mod_ell
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
        return f"({self.ell}, g={balanced_coeffs(self.g_poly, self.ell)})"


@lru_cache(maxsize=None)
def _min_poly_disc(min_poly):
    return poly_discriminant(min_poly)


@lru_cache(maxsize=None)
def prime_ideals_over(F: FieldDescriptor, ell):
    """Every prime of Z[theta] over ell, ramified and index primes included,
    in (residue degree, balanced coeff) order.

    Z[theta]/(ell) = F_ell[x]/(min_poly mod ell), so its maximal ideals are
    the (ell, g(theta)) for the distinct monic irreducible factors g; the
    residue field of each is F_ell[t]/(g).
    """
    factors = factor_poly_mod_ell(F.min_poly, ell)
    if _min_poly_disc(F.min_poly) % ell and any(mult != 1 for _, mult in factors):
        raise ArithmeticError("repeated factor despite ell coprime to disc")
    return tuple(PrimeIdeal(ell=ell, f=len(g) - 1, g_poly=g) for g, _ in factors)


def factor_prime(ell, F: FieldDescriptor):
    """Primes of Z[theta] above ell, an ell coprime to disc(min_poly)."""
    disc = _min_poly_disc(F.min_poly)
    if disc % ell == 0:
        raise RamifiedOrIndexPrime(
            f"{ell} divides disc(min_poly) = {disc}; excluded from prime handling"
        )
    return prime_ideals_over(F, ell)


@lru_cache(maxsize=None)
def prime_to_ideal(v: PrimeIdeal, F: FieldDescriptor):
    """The HNF of v = (ell, g_poly(theta))."""
    # g_poly can have degree = n for inert primes; reduce, never truncate
    ell_elt = (v.ell,) + (0,) * (F.degree - 1)
    return ideal_from_generators([ell_elt, reduce_mod_min_poly(v.g_poly, F.min_poly)], F)


@lru_cache(maxsize=None)
def residue_field(v: PrimeIdeal):
    """kappa_v presented as F_ell[t] / (g_poly), so theta maps to t."""
    return FqField(v.ell, v.f, v.g_poly)


def residue_image(x, v: PrimeIdeal):
    """Reduction O_F -> kappa_v sending theta to the class of t."""
    kappa = residue_field(v)
    return kappa.element(tuple(c % v.ell for c in x))
