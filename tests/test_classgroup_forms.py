"""Class number oracles: reduced form cycles vs ideal enumeration, CRT checks."""

from math import gcd

from torushecke.abgroup import ExponentGroup, closure_from_stream
from torushecke.classnumber import (
    degree_one_primes_over,
    ideals_wide_equivalent,
    real_quadratic_field,
    wide_class_number_real_quadratic,
    wide_class_of,
    wide_class_reps,
)
from torushecke.field import element_mul
from torushecke.forms import hplus_form_cycles, is_reduced, reduced_forms, rho_step
from torushecke.galois import is_prime
from torushecke.ideals import (
    element_is_coprime_to,
    ideal_product,
    residue_transversal,
    unit_ideal,
)
from torushecke.primes import factor_prime, prime_to_ideal
from torushecke.rayclass import narrow_class_number


def test_wide_class_numbers():
    # classical values; d=10 and d=15 are the first nontrivial ones here
    expected = {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 11: 1, 13: 1, 15: 2}
    for d, h in expected.items():
        F = real_quadratic_field(d)
        assert F.class_number == h
        assert wide_class_number_real_quadratic(F) == h


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


def _unit_group_invariants_brute(F, modulus):
    """Close (O/modulus)^x from the transversal and read off its structure."""
    identity = modulus.reduce(F.one())

    def mul(x, y):
        return modulus.reduce(element_mul(x, y, F))

    candidates = [
        x
        for x in residue_transversal(modulus)
        if any(x) and element_is_coprime_to(x, modulus, F)
    ]
    closure = closure_from_stream(candidates, mul, identity)
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
            got, order = _unit_group_invariants_brute(F, modulus)
            want = _merge_cyclic(orders)
            assert got == want, (F.label, orders, got, want)
            expected_order = 1
            for n in orders:
                expected_order *= n
            assert order == expected_order
            checked += 1
    assert checked >= 12
