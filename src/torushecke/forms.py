"""Reduction and rho-cycles of indefinite forms: the real quadratic class data.

The order Z[theta] with min_poly x^2 + c1*x + c0 has discriminant
D = c1^2 - 4*c0 > 0, and an invertible ideal of it is c*(A, (b + sqrt D)/2)
with c, A > 0 and the primitive form (A, b, (b^2 - D)/(4A)).  A form is
reduced when |sqrt D - 2|a|| < b < sqrt D.  The step rho sends the ideal of
(a, b, c) to (b - sqrt D)/(2a) times it, the ideal of (c, b', c').  Repeated
rho reduces every form, and it permutes the reduced ones; the reduced ideals
of one wide class form exactly one cycle (Shanks, "The infrastructure of a
real quadratic field", 1972; Buchmann-Vollmer, Binary Quadratic Forms, ch.
6).  So one walk of the cycle of (1) decides principality and gives the
fundamental unit, and counting cycles gives the class number.  RhoCycles
holds all three, one per discriminant (rho_cycles), each walked once.

Elements of the order are pairs (x, y) standing for (x + y*sqrt D)/2.
Everything here is integer arithmetic; isqrt stands in for sqrt D.
"""

from functools import cached_property, lru_cache
from math import gcd, isqrt

from .errors import ValidationError


def is_reduced(form, D):
    a, b, c = form
    if b <= 0 or b * b >= D:
        return False
    return (2 * abs(a) - b) ** 2 < D and (2 * abs(a) + b) ** 2 > D


def reduced_forms(D):
    """All reduced forms of discriminant D, sorted."""
    if D <= 0 or isqrt(D) ** 2 == D:
        raise ValidationError("discriminant must be positive and nonsquare")
    out = set()
    for b in range(2 - D % 2, isqrt(D) + 1, 2):
        m = (D - b * b) // 4
        for a in range(1, isqrt(m) + 1):
            if m % a == 0:
                for sa in (a, -a, m // a, -(m // a)):
                    if is_reduced((sa, b, -m // sa), D):
                        out.add((sa, b, -m // sa))
    return sorted(out)


def rho_step(form, D):
    """One reduction step; permutes the reduced forms of discriminant D."""
    a, b, c = form
    m = 2 * abs(c)
    r = (-b) % m
    s = isqrt(D)
    bp = r + m * ((s - r) // m)
    cp = (bp * bp - D) // (4 * c)
    return (c, bp, cp)


def hplus_form_cycles(D):
    """Narrow class number of discriminant D: count rho-cycles of signed forms."""
    forms = reduced_forms(D)
    seen = set()
    cycles = 0
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        g = f
        while g not in seen:
            seen.add(g)
            g = rho_step(g, D)
            if not is_reduced(g, D):
                raise ArithmeticError(f"rho left the reduced set at {g}")
    return cycles


def _ideal_rho(form, D):
    """rho on ideals: the form of the image, with its first coefficient positive."""
    a, b, c = rho_step(form, D)
    return (a, b, c) if a > 0 else (-a, b, -c)


def _times(z, b, s, m, D):
    """z * (b + s*sqrt D)/(2m); the product must lie in the order."""
    x, y = z
    u, v = x * b + s * y * D, s * x + y * b
    if u % (2 * m) or v % (2 * m):
        raise ArithmeticError("a rho multiplier left the order")
    return u // (2 * m), v // (2 * m)


def _rho_cycle(start, D):
    """The reduced ideals on the rho-cycle of start, beginning with start.

    rho permutes the finite set of reduced forms, so the walk comes back.
    """
    form = start
    while True:
        if not is_reduced(form, D):
            raise ArithmeticError(f"rho left the reduced set at {form}")
        yield form
        form = _ideal_rho(form, D)
        if form == start:
            return


def _principal_cycle(D):
    """(form, mu) around the cycle of (1), where (a, (b + sqrt D)/2) = mu*O;
    then (1) again, with mu the product of the multipliers once around."""
    b = isqrt(D)
    b -= (b - D) % 2
    one = (1, b, (b * b - D) // 4)
    mu = (2, 0)
    for form in _rho_cycle(one, D):
        yield form, mu
        mu = _times(mu, form[1], -1, form[0], D)
    yield one, mu


def _reduce(form, D):
    """The forms rho passes through before a reduced one, and that one.

    From the first step on b lies in (sqrt D - 2|a|, sqrt D), so every
    further step strictly lowers |a| until the form is reduced.
    """
    steps = []
    while not is_reduced(form, D):
        steps.append(form)
        form = _ideal_rho(form, D)
    return steps, form


class RhoCycles:
    """The rho-cycles of the reduced ideals of discriminant D.

    Built with the cycle of (1): the multiplier mu of each of its reduced
    ideals, (a, (b + sqrt D)/2) = mu*O, and unit, the fundamental unit
    eps = (x + y*sqrt D)/2 > 1.  The multipliers (b - sqrt D)/(2a), each in
    (-1, 0), multiply once around to +-eps^-1, so their conjugates, each
    > 1, multiply to eps.  The first label() or class_number walks every
    other cycle of primitive reduced ideals and names it by its least
    reduced form: the reduced ideals of one wide class form one cycle.
    """

    def __init__(self, D):
        self.D = D
        self.principal = {}
        for form, mu in _principal_cycle(D):
            self.principal.setdefault(form, mu)
        self.unit = mu[0], -mu[1]

    @cached_property
    def labels(self):
        """The label of every primitive reduced ideal form (a > 0)."""
        labels = dict.fromkeys(self.principal, min(self.principal))
        for a, b, c in reduced_forms(self.D):
            form = (abs(a), b, c if a > 0 else -c)
            if form not in labels and gcd(*form) == 1:
                cycle = list(_rho_cycle(form, self.D))
                labels.update(dict.fromkeys(cycle, min(cycle)))
        return labels

    @cached_property
    def class_number(self):
        """The wide class number of the order: the number of cycles."""
        return len(set(self.labels.values()))

    def label(self, form):
        """The label of the class of (A, (b + sqrt D)/2), (A, b, C) primitive, A > 0."""
        return self.labels[_reduce(form, self.D)[1]]


@lru_cache(maxsize=None)
def rho_cycles(D):
    """The RhoCycles of discriminant D, one for the whole process."""
    return RhoCycles(D)


def ideal_generator(form, cycles: RhoCycles):
    """mu with (A, (b + sqrt D)/2) = mu*O for a primitive form (A, b, C),
    A > 0, or None when that ideal is not principal.

    The ideal is principal exactly when its reduced form lies on the cycle
    of (1).  The inverse multipliers (b + sqrt D)/(2c) of the reduction
    steps are applied last step first, so every partial product generates
    an integral ideal.
    """
    D = cycles.D
    steps, form = _reduce(form, D)
    mu = cycles.principal.get(form)
    if mu is None:
        return None
    for _, b, c in reversed(steps):
        mu = _times(mu, b, 1, c, D)
    return mu


def power_basis(z, min_poly):
    """Coordinates over 1, theta of z = (x + y*sqrt D)/2: sqrt D = 2*theta + c1."""
    x, y = z
    c1 = min_poly[1]
    if (x + c1 * y) % 2:
        raise ArithmeticError(f"{z} does not lie in Z[theta]")
    return (x + c1 * y) // 2, y
