"""Wide class representatives of real quadratic orders and native fields.

The class number of a native field is the number of rho-cycles of reduced
ideals (forms.py).  Representatives are degree-one primes told apart by the
complete principal test on a*conj(b), which walks the same cycles.
"""

from .errors import CapExceeded, ValidationError
from .field import FieldDescriptor, poly_discriminant, validate_descriptor
from .forms import wide_class_number
from .galois import distinct_roots, factor_int, is_prime
from .ideals import IdealHNF, conjugate_ideal, ideal_from_generators, ideal_product, unit_ideal
from .principal import FOUND, NOT_FOUND, principal_generator
from .units import fundamental_unit_real_quadratic

NATIVE_DISC_CAP = 10**6
CLASS_CLOSURE_CAP = 10**4


def degree_one_primes_over(F: FieldDescriptor, ell):
    """HNF ideals of the degree-1 primes over ell, ramified included.

    Inert primes are principal as ideals, so they never matter for class
    representatives and are not produced.
    """
    n = F.degree
    out = []
    for t in distinct_roots(F.min_poly, ell):
        ell_elt = (ell,) + (0,) * (n - 1)
        g_elt = tuple((-t, 1) + (0,) * (n - 2))
        out.append(ideal_from_generators([ell_elt, g_elt], F))
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


def wide_class_reps(F: FieldDescriptor, coprime_to: IdealHNF = None):
    """Representatives of every wide class, identity first.

    Reps are the unit ideal plus degree-1 primes, all coprime to the given
    ideal; the descriptor's class number says when to stop, and primes
    above CLASS_CLOSURE_CAP are never tried.  Quadratic fields use the
    complete test; other fields must have class number 1.
    """
    h = F.class_number
    reps = [unit_ideal(F)]
    if h == 1:
        return tuple(reps)
    if F.degree != 2:
        raise ValidationError("nontrivial class groups are native to quadratic fields only")
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


def real_quadratic_field(d):
    """Native descriptor for Q(sqrt d): unit and class number from the rho-cycles."""
    if d <= 1 or max(factor_int(d).values()) > 1:
        raise ValidationError(f"d = {d} must be a squarefree integer > 1")
    min_poly = (-(d - 1) // 4, -1, 1) if d % 4 == 1 else (-d, 0, 1)
    D = poly_discriminant(min_poly)
    if D > NATIVE_DISC_CAP:
        raise CapExceeded(f"native discriminant cap exceeded for d = {d}")
    F = FieldDescriptor(
        label=f"Q(sqrt{d})",
        min_poly=min_poly,
        signature=(2, 0),
        torsion_order=2,
        torsion_generator=(-1, 0),
        fundamental_units=(fundamental_unit_real_quadratic(d),),
        class_number=wide_class_number(D),
        provenance="native",
    )
    validate_descriptor(F)
    return F
