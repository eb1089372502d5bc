"""Principal generator search for ideals of Z[theta].

Degree 2 gets a complete decision procedure from the rho-cycles of
forms.py: an invertible ideal is principal exactly when its reduced form
lies on the cycle of (1), and the rho multipliers along the way multiply
to a generator.  Higher degree falls back to bounded box enumeration and
reports exhaustion honestly as inconclusive rather than as absence.
"""

from itertools import product
from math import gcd
from typing import NamedTuple

from .field import FieldDescriptor, element_norm
from .forms import RhoCycles, ideal_generator, power_basis
from .ideals import IdealHNF, principal_ideal

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"

BOX_RADIUS = 12


class PrincipalSearchResult(NamedTuple):
    status: str
    generator: tuple | None = None

    @property
    def found(self):
        return self.status == FOUND


def principal_generator(a: IdealHNF, F: FieldDescriptor, cycles: RhoCycles = None):
    """Find x with (x) = a, exactly verified through HNF equality.

    Returns a tri-state result: found (with generator), not_found (only from
    the complete quadratic mode), or inconclusive (general-mode exhaustion
    of the box of radius BOX_RADIUS).  A real quadratic field reads the
    cycle of (1) off cycles, its field's RhoCycles, or walks it afresh when
    cycles is None.
    """
    if F.degree == 2 and F.signature[0] == 2:
        return _quadratic_search(a, F, cycles)
    return _box_search(a, F, BOX_RADIUS)


def ideal_form(a: IdealHNF, F: FieldDescriptor):
    """(c, (A, b, C)) with a = c*(A, (b + sqrt D)/2), quadratic fields only.

    The HNF columns (c*A, 0) and (h, c) give b = 2h/c - c1.  The form is
    imprimitive exactly when a is not invertible.
    """
    c0, c1 = F.min_poly[0], F.min_poly[1]
    D = c1 * c1 - 4 * c0
    (cA, h), (_, c) = a.hnf
    A, b = cA // c, 2 * (h // c) - c1
    return c, (A, b, (b * b - D) // (4 * A))


def _quadratic_search(a: IdealHNF, F: FieldDescriptor, cycles):
    """Decide principality by the rho-cycle of (1); not_found is a proof.

    A non-invertible a is not principal; otherwise forms.ideal_generator
    decides.
    """
    c, form = ideal_form(a, F)
    if gcd(*form) != 1:
        return PrincipalSearchResult(NOT_FOUND)
    A, b, C = form
    mu = ideal_generator(form, cycles or RhoCycles(b * b - 4 * A * C))
    if mu is None:
        return PrincipalSearchResult(NOT_FOUND)
    gen = tuple(c * t for t in power_basis(mu, F.min_poly))
    if principal_ideal(gen, F) != a:
        raise ArithmeticError(f"rho walk generator {gen} does not generate the ideal")
    return PrincipalSearchResult(FOUND, gen)


def _box_search(a: IdealHNF, F: FieldDescriptor, radius):
    """Exhaustive coordinate box scan, last coordinate fastest; exhaustion
    is only inconclusive."""
    m = a.norm
    for x in product(range(-radius, radius + 1), repeat=F.degree):
        if any(x) and a.contains(x) and abs(element_norm(x, F)) == m:
            if principal_ideal(x, F) == a:
                return PrincipalSearchResult(FOUND, x)
    return PrincipalSearchResult(INCONCLUSIVE)
