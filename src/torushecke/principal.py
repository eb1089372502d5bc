"""Principal generators of ideals of Z[theta], real quadratic fields only.

The rho-cycles of forms.py decide principality completely: an invertible
ideal is principal exactly when its reduced form lies on the cycle of (1),
and the rho multipliers along the way multiply to a generator; the cycle is
that of forms.rho_cycles.  Other fields are refused; a class number 1 field
never asks (classnumber).
"""

from math import gcd

from .errors import ValidationError
from .field import FieldDescriptor
from .forms import ideal_generator, power_basis, rho_cycles
from .ideals import IdealHNF, principal_ideal


def principal_generator(a: IdealHNF, F: FieldDescriptor):
    """Find x with (x) = a, exactly verified through HNF equality.

    Returns x, or None, which is a proof: a non-invertible a is not
    principal, and otherwise forms.ideal_generator decides on the cycle of
    (1) of forms.rho_cycles.  A field that is not real quadratic raises
    ValidationError.
    """
    if F.degree != 2 or F.signature[0] != 2:
        raise ValidationError("principal generators are native to real quadratic fields only")
    c, form = ideal_form(a, F)
    if gcd(*form) != 1:
        return None
    A, b, C = form
    mu = ideal_generator(form, rho_cycles(b * b - 4 * A * C))
    if mu is None:
        return None
    gen = tuple(c * t for t in power_basis(mu, F.min_poly))
    if principal_ideal(gen, F) != a:
        raise ArithmeticError(f"rho walk generator {gen} does not generate the ideal")
    return gen


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
