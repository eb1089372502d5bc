"""Pairwise wide-class oracles: classes told apart by one principal test each.

Two ideals a, b are in the same wide class exactly when a*conj(b) is
principal, and each test is a fresh, complete rho walk of the cycle of (1).
These build the representatives, the class index and the principal part of
an ideal with no shared state, against which the field-level
classnumber.WideClassGroup is checked.
"""

from torushecke.classnumber import CLASS_CLOSURE_CAP
from torushecke.errors import ValidationError
from torushecke.galois import factor_poly_mod_ell, is_prime
from torushecke.ideals import conjugate_ideal, ideal_from_generators, ideal_product, unit_ideal
from torushecke.principal import principal_generator


def distinct_roots(coeffs, ell):
    """Roots in F_ell of a polynomial, each listed once, ascending."""
    roots = []
    for g, _ in factor_poly_mod_ell(coeffs, ell):
        if len(g) == 2:
            roots.append((-g[0]) % ell)
    return sorted(roots)


def degree_one_primes_over(F, ell):
    """HNF ideals (ell, theta - t) of the degree-1 primes over ell, ramified
    included, by ascending root t; inert primes are not produced."""
    n = F.degree
    ell_elt = (ell,) + (0,) * (n - 1)
    return [
        ideal_from_generators([ell_elt, (-t, 1) + (0,) * (n - 2)], F)
        for t in distinct_roots(F.min_poly, ell)
    ]


def ideals_wide_equivalent(a, b, F):
    """[a] = [b] in the wide class group, decided exactly (quadratic only).

    b*conj(b) is the principal ideal (N(b)), so [a][b]^-1 = [a*conj(b)] and
    the test reduces to one complete principality check on an integral ideal.
    """
    if a == b:
        return True
    return principal_generator(ideal_product(a, conjugate_ideal(b, F), F), F) is not None


def wide_class_reps(F, coprime_to=None):
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


def wide_class_of(a, reps, F):
    for i, r in enumerate(reps):
        if ideals_wide_equivalent(a, r, F):
            return i
    raise ArithmeticError("ideal matches no class representative")


def principal_part(a, k, wide_reps, csg, quotient, F):
    """Image in Q of a generator of rep_k^-1 * a.

    rep_k * conj(rep_k) = (N(rep_k)), so rep_k^-1 * a = (delta) / (N(rep_k))
    with (delta) = a * conj(rep_k); the generator is well defined up to a
    global unit, which Q quotients away.
    """
    rep = wide_reps[k]
    gen = principal_generator(ideal_product(a, conjugate_ideal(rep, F), F), F)
    if gen is None:
        raise ArithmeticError("wide class index disagreed with principality test")
    q_delta = quotient.project(csg.element_vector(gen))
    q_m = quotient.project(csg.element_vector((rep.norm,) + (0,) * (F.degree - 1)))
    return tuple((x - y) % f for x, y, f in zip(q_delta, q_m, quotient.factors))
