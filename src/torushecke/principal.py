"""Principal generator search for ideals of Z[theta].

Degree 2 gets a complete decision procedure from the rho-cycles of
forms.py: an invertible ideal is principal exactly when its reduced form
lies on the cycle of (1), and the rho multipliers along the way multiply
to a generator.  Higher degree falls back to bounded box enumeration and
reports exhaustion honestly as inconclusive rather than as absence.
"""

from math import gcd
from typing import NamedTuple

from .field import FieldDescriptor, element_norm
from .forms import ideal_generator, power_basis
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


def principal_generator(a: IdealHNF, F: FieldDescriptor):
    """Find x with (x) = a, exactly verified through HNF equality.

    Returns a tri-state result: found (with generator), not_found (only from
    the complete quadratic mode), or inconclusive (general-mode exhaustion
    of the box of radius BOX_RADIUS).
    """
    if F.degree == 2 and F.signature[0] == 2:
        return _quadratic_search(a, F)
    return _box_search(a, F, BOX_RADIUS)


def _quadratic_search(a: IdealHNF, F: FieldDescriptor):
    """Decide principality by the rho-cycle of (1); not_found is a proof.

    The HNF columns (c*A, 0) and (h, c) give a = c*(A, (b + sqrt D)/2) with
    b = 2h/c - c1.  An imprimitive form (A, b, C) means a is not invertible,
    so not principal; otherwise forms.ideal_generator decides.
    """
    c0, c1 = F.min_poly[0], F.min_poly[1]
    D = c1 * c1 - 4 * c0
    (cA, h), (_, c) = a.hnf
    A, b = cA // c, 2 * (h // c) - c1
    C = (b * b - D) // (4 * A)
    mu = ideal_generator((A, b, C), D) if gcd(A, b, C) == 1 else None
    if mu is None:
        return PrincipalSearchResult(NOT_FOUND)
    gen = tuple(c * t for t in power_basis(mu, F.min_poly))
    if principal_ideal(gen, F) != a:
        raise ArithmeticError(f"rho walk generator {gen} does not generate the ideal")
    return PrincipalSearchResult(FOUND, gen)


def _box_search(a: IdealHNF, F: FieldDescriptor, radius):
    """Exhaustive coordinate box scan; exhaustion is only inconclusive."""
    n = F.degree
    m = a.norm
    idx = [-radius] * n
    while True:
        x = tuple(idx)
        if any(idx) and a.contains(x) and abs(element_norm(x, F)) == m:
            if principal_ideal(x, F) == a:
                return PrincipalSearchResult(FOUND, x)
        i = n - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] <= radius:
                break
            idx[i] = -radius
            i -= 1
        if i < 0:
            break
    return PrincipalSearchResult(INCONCLUSIVE)
