"""Ideal lattices and prime splitting: norms, transversals, residue maps."""

import random

import pytest

from torushecke.cli import moduli_upto
from torushecke.errors import RamifiedOrIndexPrime
from torushecke.field import element_mul, element_norm, load_descriptor
from torushecke.galois import balanced_coeffs, is_prime
from torushecke.ideals import (
    conjugate_ideal,
    element_is_coprime_to,
    ideal_from_generators,
    ideal_is_coprime,
    ideal_product,
    ideal_sum,
    principal_ideal,
    rational_ideal,
    residue_transversal,
    unit_ideal,
)
from torushecke.primes import (
    factor_prime,
    prime_to_ideal,
    residue_field,
    residue_image,
)


def test_principal_ideal_norm_is_element_norm(F2, F5):
    rng = random.Random(8)
    for F in (F2, F5):
        for _ in range(40):
            x = (rng.randint(-9, 9), rng.randint(-9, 9))
            if x == (0, 0):
                continue
            assert principal_ideal(x, F).norm == abs(element_norm(x, F))


def test_ideal_norm_multiplicative(F2):
    rng = random.Random(21)
    ideals = [
        principal_ideal((rng.randint(-6, 6), rng.randint(-6, 6)), F2)
        for _ in range(12)
        if True
    ]
    ideals = [a for a in ideals if a.norm > 0]
    for a in ideals[:6]:
        for b in ideals[6:]:
            assert ideal_product(a, b, F2).norm == a.norm * b.norm


def test_transversal_size_and_reduction(F2, seven2):
    reps = residue_transversal(seven2)
    assert len(reps) == seven2.norm == 49
    assert len(set(reps)) == 49
    # every element reduces into the transversal
    rng = random.Random(3)
    repset = set(reps)
    for _ in range(50):
        x = (rng.randint(-99, 99), rng.randint(-99, 99))
        assert seven2.reduce(x) in repset


def test_transversal_is_the_hnf_box_in_sorted_lex_order(F2, F3):
    for F in (F2, F3):
        for modulus, norm in moduli_upto(F, 60):
            reps = residue_transversal(modulus)
            assert reps == sorted(reps)
            assert len(set(reps)) == len(reps) == norm
            diag = [modulus.hnf[i][i] for i in range(modulus.dim)]
            assert all(0 <= x < d for r in reps for x, d in zip(r, diag))
            assert all(modulus.reduce(r) == r for r in reps)


def test_reduce_is_ring_homomorphism(F2, seven2):
    rng = random.Random(4)
    for _ in range(60):
        x = (rng.randint(-50, 50), rng.randint(-50, 50))
        y = (rng.randint(-50, 50), rng.randint(-50, 50))
        lhs = seven2.reduce(element_mul(x, y, F2))
        rhs = seven2.reduce(element_mul(seven2.reduce(x), seven2.reduce(y), F2))
        assert lhs == rhs


def test_factor_prime_against_euler_criterion(F2, F3, F5):
    """Split/inert decision must match the quadratic residue symbol."""
    for F, d in ((F2, 2), (F3, 3), (F5, 5)):
        disc0 = F.min_poly[1] ** 2 - 4 * F.min_poly[0]
        for ell in range(3, 200):
            if not is_prime(ell) or disc0 % ell == 0:
                continue
            vs = factor_prime(ell, F)
            symbol = pow(disc0 % ell, (ell - 1) // 2, ell)
            if symbol == 1:
                assert len(vs) == 2 and all(v.f == 1 for v in vs)
                # the two primes are conjugate ideals
                a, b = (prime_to_ideal(v, F) for v in vs)
                assert conjugate_ideal(a, F) == b
            else:
                assert len(vs) == 1 and vs[0].f == 2
            for v in vs:
                assert prime_to_ideal(v, F).norm == v.norm


def test_ramified_prime_refused(F2):
    with pytest.raises(RamifiedOrIndexPrime):
        factor_prime(2, F2)


def test_residue_image_is_homomorphism(F2):
    v = factor_prime(7, F2)[0]
    assert v.f == 1
    kappa = residue_field(v)
    rng = random.Random(99)
    for _ in range(60):
        x = (rng.randint(-30, 30), rng.randint(-30, 30))
        y = (rng.randint(-30, 30), rng.randint(-30, 30))
        ix, iy = residue_image(x, v), residue_image(y, v)
        assert residue_image(element_mul(x, y, F2), v).coords == (ix * iy).coords
        sx = tuple(a + b for a, b in zip(x, y))
        assert residue_image(sx, v).coords == (ix + iy).coords
    # theta goes to a root of min_poly in the residue field
    th = residue_image((0, 1), v)
    assert (th * th).coords == kappa.from_int(2).coords


def test_ideal_sum_and_coprimality(F2, seven2):
    three = rational_ideal(3, F2)
    assert ideal_is_coprime(three, seven2, F2)
    assert ideal_sum(three, seven2) == unit_ideal(F2)
    v7 = prime_to_ideal(factor_prime(7, F2)[0], F2)
    assert not ideal_is_coprime(v7, seven2, F2)
    assert element_is_coprime_to((1, 1), seven2, F2)
    assert not element_is_coprime_to((7, 0), seven2, F2)


def test_conjugate_ideal_involution_and_norm_product(F2):
    for ell in (7, 17, 23):
        v = factor_prime(ell, F2)[0]
        a = prime_to_ideal(v, F2)
        ac = conjugate_ideal(a, F2)
        assert conjugate_ideal(ac, F2) == a
        # a * conj(a) = (N a)
        assert ideal_product(a, ac, F2) == rational_ideal(a.norm, F2)


def test_ideal_from_generators_contains_generators(F2):
    gens = [(3, 1), (5, -2)]
    a = ideal_from_generators(gens, F2)
    for g in gens:
        assert a.contains(g)
    # and products with theta stay inside (it is an ideal, not a lattice)
    for g in gens:
        assert a.contains(element_mul(g, (0, 1), F2))
    with pytest.raises(ValueError):
        ideal_from_generators([(0, 0)], F2)


def test_unit_ideal_is_the_principal_ideal_of_one(F2, F3, F5, F10, cubic_descriptors):
    """The identity HNF is the ideal that 1 generates, at degree 2 and 3."""
    cubics = [load_descriptor(c) for c in cubic_descriptors]
    for F in [F2, F3, F5, F10] + cubics:
        assert unit_ideal(F) == principal_ideal(F.one(), F), F.label
        assert unit_ideal(F).norm == 1


def test_balanced_coeffs():
    assert balanced_coeffs((23, 1), 31) == (-8, 1)
    assert balanced_coeffs((8, 1), 31) == (8, 1)
    assert balanced_coeffs((4, 1), 7) == (-3, 1)
