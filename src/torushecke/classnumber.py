"""The wide class group of real quadratic orders and native fields.

The unit, the class number and the class labels of a native field come from
one walk of its rho-cycles, forms.rho_cycles.  Representatives are
degree-one primes with distinct labels, read off the prime table (the
degree-one entries of primes.prime_ideals_over), so each rational prime is
factored once per field.
"""

from math import gcd

from .errors import CapExceeded, ValidationError
from .field import FieldDescriptor, poly_discriminant, validate_descriptor
from .forms import rho_cycles
from .galois import factor_int, is_prime
from .ideals import IdealHNF, conjugate_ideal, ideal_product, unit_ideal
from .primes import prime_ideals_over, prime_to_ideal
from .principal import ideal_form, principal_generator
from .units import fundamental_unit_real_quadratic

NATIVE_DISC_CAP = 10**6
CLASS_CLOSURE_CAP = 10**4


class WideClassGroup:
    """The wide class group of one field, built on first use and shared by
    every modulus of the field.

    A class is named by a label: the least reduced form of its rho-cycle
    (forms.rho_cycles), or 0 for every ideal when the class number is 1.
    The degree-one primes are listed in the order of wide_class_reps, with
    their labels, as far as a modulus has needed them.  The label of each
    ideal met, the products of representatives and the generator of
    rep_k1 * rep_k2 * conj(rep_k3) for each triple are kept, so a modulus
    whose representatives another modulus already used does no ideal
    arithmetic and no search.  A class number 1 field has the single class
    of (1), generated by 1, and never searches.  Nothing that raised is
    kept.
    """

    def __init__(self, F: FieldDescriptor):
        self.field = F
        self.order = F.class_number
        self._primes = []  # (ell, degree-one prime, label), ascending ell
        self._ell = 1
        self._labels = {}
        self._products = {}
        self._generators = {}

    def label(self, a: IdealHNF):
        """The label of the class of a; None when a is not invertible."""
        F = self.field
        if self.order == 1:
            return 0
        if F.degree != 2 or F.signature[0] != 2:
            raise ValidationError(
                "nontrivial class groups are native to real quadratic fields only"
            )
        if a not in self._labels:
            _, (A, b, C) = ideal_form(a, F)
            primitive = gcd(A, b, C) == 1
            self._labels[a] = rho_cycles(b * b - 4 * A * C).label((A, b, C)) if primitive else None
        return self._labels[a]

    def product(self, a: IdealHNF, b: IdealHNF):
        if (a, b) not in self._products:
            self._products[a, b] = ideal_product(a, b, self.field)
        return self._products[a, b]

    def generator(self, a: IdealHNF):
        """A generator of the principal ideal a; raises when a is not principal."""
        F = self.field
        if a.norm == 1:
            return F.one()
        gen = principal_generator(a, F)
        if gen is None:
            raise ArithmeticError("wide class index disagreed with principality test")
        return gen

    def class_index(self, a: IdealHNF, reps):
        """k with [a] = [reps[k]], reps being wide_class_reps of this field."""
        labels = [self.label(r) for r in reps]
        label = self.label(a)
        if label is None or label not in labels:
            raise ArithmeticError("ideal matches no class representative")
        return labels.index(label)

    def quotient_generator(self, a: IdealHNF, b: IdealHNF, rep: IdealHNF):
        """A generator of a*b*conj(rep), principal when [a*b] = [rep]; kept
        for each triple, as the factor set of a modulus asks for it."""
        key = a, b, rep
        if key not in self._generators:
            F = self.field
            c = ideal_product(self.product(a, b), conjugate_ideal(rep, F), F)
            self._generators[key] = self.generator(c)
        return self._generators[key]

    def degree_one_primes(self):
        """The degree-one primes with their labels, listed as far as asked:
        by ascending ell, and over one ell by ascending root t of
        (ell, theta - t), read off the HNF column (h, 1) with h = -t mod ell.
        Ramified primes are included, inert ones (principal) are not.  Past
        CLASS_CLOSURE_CAP the list raises CapExceeded."""
        F = self.field
        i = 0
        while True:
            while i == len(self._primes):
                ell = self._ell + 1
                if ell > CLASS_CLOSURE_CAP:
                    raise CapExceeded("class representative sweep exhausted its cap")
                if is_prime(ell):
                    over = [prime_to_ideal(v, F) for v in prime_ideals_over(F, ell) if v.f == 1]
                    over.sort(key=lambda v: -v.hnf[0][1] % ell)
                    self._primes.extend([(ell, v, self.label(v)) for v in over])
                self._ell = ell
            yield self._primes[i]
            i += 1


def wide_class_reps(F: FieldDescriptor, coprime_to: IdealHNF, wide: WideClassGroup):
    """Representatives of every wide class, identity first.

    Reps are the unit ideal plus, in the order of wide.degree_one_primes,
    the first degree-1 prime of each new class, all coprime to the given
    ideal; the class number says when to stop, and a sweep that passes
    CLASS_CLOSURE_CAP raises CapExceeded.  Classes are told apart by the
    labels of wide, the field's WideClassGroup; a prime over the conductor
    of a non-maximal order is not invertible, lies in no class and is
    skipped.  Fields other than real quadratic ones must have class number
    1.
    """
    reps = [unit_ideal(F)]
    if wide.order == 1:
        return tuple(reps)
    seen = {wide.label(reps[0])}
    skip = coprime_to.norm
    for ell, v, label in wide.degree_one_primes():
        if skip % ell and label is not None and label not in seen:
            seen.add(label)
            reps.append(v)
            if len(reps) == wide.order:
                return tuple(reps)


def real_quadratic_field(d):
    """Native descriptor for Q(sqrt d): unit and class number from forms.rho_cycles."""
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
        class_number=rho_cycles(D).class_number,
        provenance="native",
    )
    validate_descriptor(F)
    return F
