"""Finite fields that only the tests build: F_{ell^f} from the first monic
irreducible polynomial of degree f."""

from functools import lru_cache
from itertools import product

from torushecke.galois import FqField, poly_is_irreducible


@lru_cache(maxsize=None)
def extension_field(ell, f):
    """F_{ell^f} modulo the first irreducible monic polynomial of degree f,
    in lexicographic coefficient order, the constant coefficient fastest.
    """
    for high_first in product(range(ell), repeat=f):
        cand = tuple(reversed(high_first)) + (1,)
        if poly_is_irreducible(cand, ell):
            return FqField(ell, f, cand)
    raise ArithmeticError("no irreducible polynomial found")
