"""Class number oracles: reduced form cycles vs ideal enumeration, CRT checks."""

import random
from math import gcd, isqrt

from torushecke import forms
from torushecke.abgroup import ExponentGroup, closure_from_stream
from class_oracles import (
    degree_one_primes_over,
    ideals_wide_equivalent,
    wide_class_of,
    wide_class_reps,
)
from torushecke.classnumber import WideClassGroup, real_quadratic_field
from torushecke.cli import moduli_upto
from torushecke.congruence import residue_sign_group
from torushecke.field import FieldDescriptor, element_mul, poly_discriminant, validate_descriptor
from torushecke.forms import hplus_form_cycles, is_reduced, reduced_forms, rho_step
from torushecke.galois import factor_int, is_prime
from torushecke.ideals import (
    element_is_coprime_to,
    ideal_product,
    rational_ideal,
    residue_transversal,
    unit_ideal,
)
from torushecke.intlinalg import hnf_reduce
from torushecke.primes import factor_prime, prime_ideals_over, prime_to_ideal
from torushecke.rayclass import narrow_class_number, ray_class_group
from torushecke.units import unit_image_in_modulus


def _closure_class_number(F):
    """h_F by Minkowski-bound generation and exact pairwise equivalence.

    Every class contains an integral ideal of norm <= sqrt(disc)/2, and any
    such ideal factors into degree-1 primes within the same bound (inert
    factors are principal), so closing the identity under products with
    those primes visits every class.
    """
    bound = isqrt(poly_discriminant(F.min_poly)) // 2 + 1
    ells = [ell for ell in range(2, bound + 1) if is_prime(ell)]
    primes = [v for ell in ells for v in degree_one_primes_over(F, ell)]
    reps = [unit_ideal(F)]
    frontier = [unit_ideal(F)]
    while frontier:
        base = frontier.pop()
        for q in primes:
            cand = ideal_product(base, q, F)
            if not any(ideals_wide_equivalent(cand, r, F) for r in reps):
                reps.append(cand)
                frontier.append(cand)
    return len(reps)


def test_wide_class_numbers():
    # classical values; d=10 and d=15 are the first nontrivial ones here
    expected = {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 11: 1, 13: 1, 15: 2}
    for d, h in expected.items():
        F = real_quadratic_field(d)
        assert F.class_number == h
        assert _closure_class_number(F) == h


def test_one_rho_cycle_walk_per_discriminant(monkeypatch):
    # the builder, the descriptor check and the wide class group of three
    # moduli read one enumeration of the reduced forms and one walk of (1)
    calls = dict.fromkeys(("reduced_forms", "_principal_cycle"), 0)
    for name in calls:

        def counted(D, name=name, fn=getattr(forms, name)):
            calls[name] += 1
            return fn(D)

        monkeypatch.setattr(forms, name, counted)
    forms.rho_cycles.cache_clear()
    F = real_quadratic_field(229)
    wide = WideClassGroup(F)
    for m in (1, 2, 5):
        ray_class_group(unit_image_in_modulus(F, rational_ideal(m, F)), wide)
    assert wide.order == 3
    assert calls == {"reduced_forms": 1, "_principal_cycle": 1}


def test_cycle_class_numbers_match_the_closure_and_the_form_cycles():
    """h from the ideal cycles against the product closure, and h+ of the
    ray class group against the signed form cycles, for squarefree d < 1000."""
    largest = 0
    for d in range(2, 1000):
        if max(factor_int(d).values()) > 1:
            continue
        F = real_quadratic_field(d)
        assert _closure_class_number(F) == F.class_number, d
        D = poly_discriminant(F.min_poly)
        assert narrow_class_number(F) == hplus_form_cycles(D), d
        largest = max(largest, F.class_number)
    assert largest == 12


def test_narrow_vs_wide_unit_norm_rule():
    """h+ = h when the fundamental unit has norm -1, else 2h."""
    from torushecke.field import element_norm

    for d in (2, 3, 5, 6, 7, 10, 11, 13, 15):
        F = real_quadratic_field(d)
        hplus = narrow_class_number(F)
        n_eps = element_norm(F.fundamental_units[0], F)
        if n_eps == -1:
            assert hplus == F.class_number
        else:
            assert hplus == 2 * F.class_number


def test_form_cycles_equal_ideal_narrow_class_number():
    """Two independent h+ computations agree on the fundamental discriminants."""
    pairs = {8: 2, 12: 3, 40: 10, 60: 15}
    for D, d in pairs.items():
        F = real_quadratic_field(d)
        assert hplus_form_cycles(D) == narrow_class_number(F)


def test_reduced_forms_are_closed_under_rho():
    for D in (8, 12, 40, 60, 13, 17):
        forms = reduced_forms(D)
        assert forms
        for f in forms:
            assert is_reduced(f, D)
            g = rho_step(f, D)
            assert is_reduced(g, D)
            assert g[1] * g[1] - 4 * g[0] * g[2] == D
        # rho permutes: injective on a finite set
        images = {rho_step(f, D) for f in forms}
        assert images == set(forms)


def test_wide_equivalence_properties(F10):
    v2 = degree_one_primes_over(F10, 2)[0]
    v3 = degree_one_primes_over(F10, 3)[0]
    one = unit_ideal(F10)
    # both nonprincipal in the order of discriminant 40
    assert not ideals_wide_equivalent(v2, one, F10)
    assert not ideals_wide_equivalent(v3, one, F10)
    # class group has order 2, so they are equivalent to each other
    assert ideals_wide_equivalent(v2, v3, F10)
    assert ideals_wide_equivalent(ideal_product(v2, v3, F10), one, F10)


def test_wide_class_reps_and_lookup(F10):
    reps = wide_class_reps(F10)
    assert len(reps) == 2
    assert reps[0] == unit_ideal(F10)
    v3 = degree_one_primes_over(F10, 3)[0]
    assert wide_class_of(v3, reps, F10) == 1
    assert wide_class_of(unit_ideal(F10), reps, F10) == 0
    # coprimality constraint is honored
    reps7 = wide_class_reps(F10, coprime_to=degree_one_primes_over(F10, 3)[0])
    for r in reps7:
        assert r.norm % 3 != 0


# ----------------------------------------------------------------- CRT oracle


def _merge_cyclic(orders):
    """Invariant factors of prod Z/n for the given cyclic orders."""
    factors = []
    for n in orders:
        if n == 1:
            continue
        merged = []
        for m in factors:
            g = gcd(n, m)
            lcm = n * m // g if g else 0
            merged.append(lcm)
            n = g
        if n > 1:
            merged.append(n)
        # keep the divisibility chain sorted ascending
        factors = sorted(merged)
    return tuple(sorted(d for d in factors if d > 1))


def _brute_units(F, modulus):
    """The residues of the HNF box coprime to the modulus, by ideal sums."""
    return [
        x
        for x in residue_transversal(modulus)
        if any(x) and element_is_coprime_to(x, modulus, F)
    ]


def _unit_group_invariants_brute(F, modulus, units):
    """Close (O/modulus)^x from its units and read off its structure."""
    identity = modulus.reduce(F.one())

    def mul(x, y):
        return modulus.reduce(element_mul(x, y, F))

    closure = closure_from_stream(units, mul, identity)
    group = ExponentGroup.from_columns(closure.relation_columns, closure.ngens)
    return tuple(sorted(group.invariant_factors())), closure.order


def _prime_square_moduli(F, bound):
    """P^2 over an odd split ell, alone and times a prime over another split
    ell', with the cyclic orders of their local unit groups.

    O/P^2 = Z/ell^2, so (O/P^2)^x is cyclic of order ell*(ell - 1); the
    ell-part is the 1 + P filtration step.
    """
    disc = F.min_poly[1] ** 2 - 4 * F.min_poly[0]
    split = []
    for ell in range(3, bound + 1):
        if is_prime(ell) and disc % ell != 0:
            vs = factor_prime(ell, F)
            if len(vs) == 2:
                split.append((ell, [prime_to_ideal(v, F) for v in vs]))
    out = []
    for ell, ideals in split:
        for a in ideals:
            square = ideal_product(a, a, F)
            if ell * ell <= bound:
                out.append((square, [ell * (ell - 1)]))
            for ell2, ideals2 in split:
                if ell2 != ell and ell * ell * ell2 <= bound:
                    for b in ideals2:
                        out.append((ideal_product(square, b, F), [ell * (ell - 1), ell2 - 1]))
    return out


def test_residue_units_match_crt_of_local_factors(F2, F3):
    """(O/m)^x by brute closure == CRT product of the local unit groups,
    for m = P^2 and P^2*Q over split primes."""
    checked = 0
    for F in (F2, F3):
        for modulus, orders in _prime_square_moduli(F, 1000):
            got, order = _unit_group_invariants_brute(F, modulus, _brute_units(F, modulus))
            want = _merge_cyclic(orders)
            assert got == want, (F.label, orders, got, want)
            expected_order = 1
            for n in orders:
                expected_order *= n
            assert order == expected_order
            checked += 1
    assert checked >= 12


def _oracle_moduli(F2, F3):
    """(field, modulus) pairs for the structure-vs-brute-closure check."""
    out = []
    for d in (2, 3, 5, 6, 7, 10, 11, 13):  # the theorem sweep, norm <= 10
        F = real_quadratic_field(d)
        out += [(F, a) for a, _ in moduli_upto(F, 10)]
    # P^k over the ramified 2 of Q(sqrt2)
    (v,) = prime_ideals_over(F2, 2)
    P = prime_to_ideal(v, F2)
    power = P
    for _ in range(8):
        out.append((F2, power))
        power = ideal_product(power, P, F2)
    for F in (F2, F3):
        out += [(F, a) for a, _ in _prime_square_moduli(F, 1000)]
    # P * P'^2 over a split prime: two components over one rational prime
    for F, ell in ((F2, 7), (F3, 11)):
        P, Q = (prime_to_ideal(v, F) for v in factor_prime(ell, F))
        out.append((F, ideal_product(P, ideal_product(Q, Q, F), F)))
    for d in (229, 249):
        F = real_quadratic_field(d)
        out += [(F, a) for a, _ in moduli_upto(F, 12)]
    # prime components closed by a generator and Pohlig-Hellman logs: the
    # split primes of the large-index bench (431 - 1 = 2*5*43,
    # 433 - 1 = 2^4*3^3, 439 - 1 = 2*3*73) and inert primes of degree 2
    for ell in (431, 433, 439):
        out += [(F2, prime_to_ideal(v, F2)) for v in factor_prime(ell, F2)]
    out += [(F2, rational_ideal(ell, F2)) for ell in (19, 29)]
    zeta7_plus = FieldDescriptor(
        label="Q(zeta7)^+",
        min_poly=(-1, -2, 1, 1),
        signature=(3, 0),
        torsion_order=2,
        torsion_generator=(-1, 0, 0),
        fundamental_units=((0, 1, 0), (1, 1, 0)),
        class_number=1,
        provenance="ingested",
    )
    validate_descriptor(zeta7_plus)
    out += [(zeta7_plus, a) for a, _ in moduli_upto(zeta7_plus, 40)]
    # 5 is inert in Q(zeta7)^+: a residue field of degree 3
    out.append((zeta7_plus, rational_ideal(5, zeta7_plus)))
    return out


def test_residue_structure_matches_the_brute_closure(F2, F3):
    """The CRT product of local closures against the closure of the whole
    box: same order and invariant factors, and element_vector injective on
    the units of the box and multiplicative on random pairs."""
    rng = random.Random(12)
    for F, modulus in _oracle_moduli(F2, F3):
        units = _brute_units(F, modulus)
        invariants, order = _unit_group_invariants_brute(F, modulus, units)
        csg = residue_sign_group(F, modulus)
        k = csg.n_residue_gens
        local = ExponentGroup.from_columns([c[:k] for c in csg.full_relation_columns[:k]], k)
        assert csg.residue_order == local.order == order, (F.label, modulus)
        assert tuple(sorted(local.invariant_factors())) == invariants, (F.label, modulus)
        seen = {hnf_reduce(local.hnf, csg.element_vector(x)[:k]) for x in units}
        assert len(seen) == len(units), (F.label, modulus)
        group = ExponentGroup.from_columns(csg.full_relation_columns, csg.width)
        for _ in range(10 if units else 0):
            x, y = rng.choice(units), rng.choice(units)
            vx, vy = csg.element_vector(x), csg.element_vector(y)
            vxy = csg.element_vector(element_mul(x, y, F))
            diff = tuple(a - b - c for a, b, c in zip(vxy, vx, vy))
            assert not any(hnf_reduce(group.hnf, diff)), (F.label, modulus, x, y)
