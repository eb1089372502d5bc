"""Wide class groups of real quadratic orders and native field construction.

The class group is built from first principles: degree-one prime ideals up
to the Minkowski bound, pairwise equivalence decided by the complete
norm-equation principal test on a*conj(b), closure under products.  This
path is deliberately independent of the reduced-form cycle count so the two
can serve as cross-checking oracles.
"""

from math import isqrt

from .errors import CapExceeded, ValidationError
from .field import FieldDescriptor, poly_discriminant, validate_descriptor
from .galois import distinct_roots, is_prime
from .ideals import IdealHNF, conjugate_ideal, ideal_product, unit_ideal
from .principal import FOUND, NOT_FOUND, principal_generator
from .units import fundamental_unit_real_quadratic

NATIVE_DISC_CAP = 10**6
CLASS_CLOSURE_CAP = 10**4


def degree_one_primes_over(F: FieldDescriptor, ell):
    """HNF ideals of the degree-1 primes over ell, ramified included.

    Inert primes are principal as ideals, so they never matter for class
    representatives and are not produced.
    """
    from .ideals import ideal_from_generators

    n = F.degree
    out = []
    for t in distinct_roots(F.min_poly, ell):
        ell_elt = (ell,) + (0,) * (n - 1)
        g_elt = tuple((-t, 1) + (0,) * (n - 2))
        out.append(ideal_from_generators([ell_elt, g_elt], F))
    return out


def degree_one_primes_upto(F: FieldDescriptor, bound):
    out = []
    ell = 2
    while ell <= bound:
        if is_prime(ell):
            out.extend(degree_one_primes_over(F, ell))
        ell += 1
    return out


def ideals_wide_equivalent(a: IdealHNF, b: IdealHNF, F: FieldDescriptor):
    """[a] = [b] in the wide class group, decided exactly (quadratic only).

    b*conj(b) is the principal ideal (N(b)), so [a][b]^-1 = [a*conj(b)] and
    the test reduces to one complete principality check on an integral ideal.
    """
    if a == b:
        return True
    prod = ideal_product(a, conjugate_ideal(b, F), F)
    res = principal_generator(prod, F)
    if res.status == FOUND:
        return True
    if res.status == NOT_FOUND:
        return False
    raise ArithmeticError("principal test inconclusive in complete quadratic mode")


def wide_class_number_real_quadratic(F: FieldDescriptor):
    """h_F by Minkowski-bound generation and exact pairwise equivalence.

    Every class contains an integral ideal of norm <= sqrt(disc)/2, and any
    such ideal factors into degree-1 primes within the same bound (inert
    factors are principal), so closing the identity under products with
    those primes visits every class.
    """
    disc = abs(poly_discriminant(F.min_poly))
    bound = isqrt(disc) // 2 + 1
    primes = degree_one_primes_upto(F, bound)
    reps = [unit_ideal(F)]
    frontier = [unit_ideal(F)]
    while frontier:
        base = frontier.pop()
        for q in primes:
            cand = ideal_product(base, q, F)
            if cand.norm > CLASS_CLOSURE_CAP:
                raise CapExceeded("class closure produced ideals beyond the norm cap")
            if not any(ideals_wide_equivalent(cand, r, F) for r in reps):
                reps.append(cand)
                frontier.append(cand)
    return len(reps)


def wide_class_reps(F: FieldDescriptor, coprime_to: IdealHNF = None):
    """Representatives of every wide class, identity first.

    Reps are the unit ideal plus degree-1 primes (products if needed), all
    coprime to the given ideal; the descriptor's class number says when to
    stop, and primes above CLASS_CLOSURE_CAP are never tried.  Quadratic
    fields use the complete test; other fields must have class number 1.
    """
    h = F.class_number
    reps = [unit_ideal(F)]
    if h == 1:
        return tuple(reps)
    if F.degree != 2:
        raise ValidationError("nontrivial class groups are native to quadratic fields only")
    disc = abs(poly_discriminant(F.min_poly))
    ell = 2
    while len(reps) < h:
        if ell > CLASS_CLOSURE_CAP:
            raise ArithmeticError("class representative sweep exhausted its cap")
        if is_prime(ell):
            skip = coprime_to is not None and coprime_to.norm % ell == 0
            if not skip:
                for v in degree_one_primes_over(F, ell):
                    if len(reps) >= h:
                        break
                    if not any(ideals_wide_equivalent(v, r, F) for r in reps):
                        reps.append(v)
        ell += 1
    return tuple(reps)


def wide_class_of(a: IdealHNF, reps, F: FieldDescriptor):
    for i, r in enumerate(reps):
        if ideals_wide_equivalent(a, r, F):
            return i
    raise ArithmeticError("ideal matches no class representative")


def _squarefree(d):
    n = d
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def real_quadratic_field(d):
    """Native descriptor for Q(sqrt d): unit, class number, validation."""
    if d <= 1 or not _squarefree(d):
        raise ValidationError(f"d = {d} must be a squarefree integer > 1")
    if d % 4 == 1:
        min_poly = (-(d - 1) // 4, -1, 1)
    else:
        min_poly = (-d, 0, 1)
    if abs(poly_discriminant(min_poly)) > NATIVE_DISC_CAP:
        raise CapExceeded(f"native discriminant cap exceeded for d = {d}")
    eps = fundamental_unit_real_quadratic(d)
    provisional = FieldDescriptor(
        label=f"Q(sqrt{d})",
        min_poly=min_poly,
        signature=(2, 0),
        torsion_order=2,
        torsion_generator=(-1, 0),
        fundamental_units=(eps,),
        class_number=1,
        provenance="native",
    )
    h = wide_class_number_real_quadratic(provisional)
    F = FieldDescriptor(
        label=provisional.label,
        min_poly=min_poly,
        signature=(2, 0),
        torsion_order=2,
        torsion_generator=(-1, 0),
        fundamental_units=(eps,),
        class_number=h,
        provenance="native",
    )
    validate_descriptor(F)
    return F
