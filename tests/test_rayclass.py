"""Ray class group law, codes, and representative sweeps."""

import pytest

from torushecke.classnumber import real_quadratic_field
from torushecke.errors import ValidationError
from torushecke.ideals import ideal_product, rational_ideal, unit_ideal
from torushecke.primes import factor_prime, prime_to_ideal
from torushecke.rayclass import narrow_class_number, ray_class_group
from torushecke.units import unit_image_in_modulus


def test_narrow_class_numbers_golden():
    expected = {2: 1, 3: 2, 5: 1, 6: 2, 7: 2, 10: 2, 11: 2, 13: 1, 15: 4}
    for d, hplus in expected.items():
        assert narrow_class_number(real_quadratic_field(d)) == hplus


def test_trivial_modulus_group_small(F2):
    G = ray_class_group(unit_image_in_modulus(F2, unit_ideal(F2)))
    assert G.order == 1
    assert G.invariant_factors() == ()
    assert G.class_of(rational_ideal(7, F2)) == 0


def test_group_axioms_and_tables(F3):
    G = ray_class_group(unit_image_in_modulus(F3, unit_ideal(F3)))
    assert G.order == 2
    n = G.order
    for i in range(n):
        assert G.multiply(G.identity, i) == i
        assert G.multiply(i, G.inverse(i)) == G.identity
        for j in range(n):
            assert G.multiply(i, j) == G.multiply(j, i)
    assert G.invariant_factors() == (2,)


def test_class_of_is_multiplicative(F2, seven2):
    G = ray_class_group(unit_image_in_modulus(F2, seven2))
    assert G.order == 12
    vs = [v for ell in (3, 5, 11, 13) for v in factor_prime(ell, F2)]
    ideals = [prime_to_ideal(v, F2) for v in vs]
    for a in ideals:
        for b in ideals:
            lhs = G.multiply(G.class_of(a), G.class_of(b))
            assert lhs == G.class_of(ideal_product(a, b, F2))


def test_class_of_rejects_noncoprime(F2, seven2):
    G = ray_class_group(unit_image_in_modulus(F2, seven2))
    with pytest.raises(ValidationError):
        G.class_of(rational_ideal(7, F2))
    with pytest.raises(ValidationError):
        G.class_of(rational_ideal(21, F2))


def test_power_and_order(F2, seven2):
    G = ray_class_group(unit_image_in_modulus(F2, seven2))
    for i in range(G.order):
        assert G.power(i, 0) == G.identity
        assert G.power(i, 1) == i
        assert G.power(i, -1) == G.inverse(i)
        # element order divides group order
        assert G.power(i, G.order) == G.identity


def test_snf_coords_faithful(F2, seven2):
    G = ray_class_group(unit_image_in_modulus(F2, seven2))
    factors = G.invariant_factors()
    order = 1
    for f in factors:
        order *= f
    assert order == G.order
    seen = {G.snf_coords(i) for i in range(G.order)}
    assert len(seen) == G.order
    # coords of the identity are zero and coords respect multiplication
    assert G.snf_coords(G.identity) == tuple(0 for _ in factors)
    for i in range(G.order):
        for j in range(0, G.order, 5):
            want = tuple(
                (x + y) % f
                for x, y, f in zip(G.snf_coords(i), G.snf_coords(j), factors)
            )
            assert G.snf_coords(G.multiply(i, j)) == want


def test_representatives_are_distinct_and_coprime(F2, F3, seven2):
    for F, modulus in ((F3, unit_ideal(F3)), (F2, seven2)):
        G = ray_class_group(unit_image_in_modulus(F, modulus))
        reps = G.representatives()
        assert len(reps) == G.order
        assert [G.class_of(a) for a in reps] == list(range(G.order))


def test_prime_over_eleven_is_nontrivial_in_sqrt3(F3):
    """The ray class swap pair: Q(sqrt 3) has h+ = 2 and 11 splits."""
    G = ray_class_group(unit_image_in_modulus(F3, unit_ideal(F3)))
    v = factor_prime(11, F3)[0]
    assert v.f == 1
    c = G.class_of_prime(v)
    assert c != G.identity
    assert G.multiply(c, c) == G.identity
    # multiplying by c swaps the two classes
    assert sorted(G.multiply(c, i) for i in range(2)) == [0, 1]


def test_ray_group_orders_scale_with_modulus(F2):
    # norm-7 modulus: (O/7)^x has order 48, units (-1, eps) cut it to 12
    G7 = ray_class_group(unit_image_in_modulus(F2, rational_ideal(7, F2)))
    assert G7.order == 12
    assert G7.invariant_factors() == (2, 6)
    # split prime over 7: (O/v)^x x {signs} has order 24 and the unit
    # image <(-1), (1+sqrt2)> only reaches a subgroup of order 12
    v7 = factor_prime(7, F2)[0]
    G = ray_class_group(unit_image_in_modulus(F2, prime_to_ideal(v7, F2)))
    assert G.order == 2
    assert G.invariant_factors() == (2,)
