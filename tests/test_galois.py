"""Finite fields and characters: factorization oracles, generators, goldens."""

import operator
import random
from collections import Counter

import pytest

from torushecke import galois
from torushecke.errors import CharacterUndefined, GeneratorError
from class_oracles import distinct_roots
from galois_oracles import extension_field
from torushecke.galois import (
    CyclicGroup,
    FqField,
    balanced_coeffs,
    factor_int,
    factor_poly_mod_ell,
    find_generator,
    is_prime,
    order_fault,
    poly_is_irreducible,
    poly_mul,
    poly_trim,
    power,
    pth_character,
    sqrt_mod,
    verify_generator,
)


def _poly_product(factors, ell):
    acc = (1,)
    for g, mult in factors:
        for _ in range(mult):
            acc = poly_mul(acc, g, ell)
    return acc


def test_power_against_builtin_pow():
    """acc * x^e under a modular product, at e = 0, 1, 2^k - 1 (every bit
    set) and random e, from acc = 1 and from acc != 1."""
    rng = random.Random(18)
    for m in (2, 7, 97, 2**61 - 1, 10**12 + 39):

        def mul(a, b):
            return a * b % m

        exponents = [0, 1] + [2**k - 1 for k in range(1, 70, 7)]
        exponents += [rng.randrange(2**80) for _ in range(10)]
        for e in exponents:
            x = rng.randrange(m)
            assert power(x, e, mul, 1) == pow(x, e, m)
            acc = rng.randrange(2, m) if m > 2 else 1
            assert power(x, e, mul, acc) == acc * pow(x, e, m) % m
    # at e = 0 acc comes back untouched and mul is never called
    assert power(None, 0, None, "acc") == "acc"


def test_factorization_reconstructs_input():
    rng = random.Random(314159)
    # small fields, characteristic 2 included, then large ones
    for ells, max_deg, cases in (([2, 3, 5, 7, 11, 13], 6, 120), ([101, 1009], 4, 60)):
        for _ in range(cases):
            ell = rng.choice(ells)
            deg = rng.randint(1, max_deg)
            coeffs = tuple(rng.randrange(ell) for _ in range(deg)) + (1,)
            factors = factor_poly_mod_ell(coeffs, ell)
            assert _poly_product(factors, ell) == poly_trim(coeffs)
            for g, _ in factors:
                assert g[-1] == 1  # monic
                assert poly_is_irreducible(g, ell)


def test_factor_goldens():
    # x^2 - 2 mod 31 = (x - 8)(x + 8); roots ascending
    assert distinct_roots((-2, 0, 1), 31) == [8, 23]
    # factors sorted by balanced coefficients: x + 23 = x - 8 comes first
    fs = factor_poly_mod_ell((29, 0, 1), 31)
    assert [g for g, _ in fs] == [(23, 1), (8, 1)]
    # inert mod 11: x^2 - 2 is irreducible
    assert factor_poly_mod_ell((9, 0, 1), 11) == [((9, 0, 1), 1)]
    # ramified shape mod 2: x^2 with multiplicity 2
    assert factor_poly_mod_ell((0, 0, 1), 2) == [((0, 1), 2)]


def _general_factors(f, ell):
    """The general factorization of a monic f, the multiplicity peel with
    Cantor-Zassenhaus, sorted as factor_poly_mod_ell sorts."""
    out = {}
    galois._factor_with_multiplicity(f, ell, 1, out)
    return sorted(out.items(), key=lambda gm: (len(gm[0]), balanced_coeffs(gm[0], ell)))


def test_quadratic_splitting_matches_the_general_factorization():
    """The discriminant split of a monic quadratic over an odd ell against
    the general kernel: every x^2 + b x + c mod every odd prime below 60,
    then 2000 seeded random ones mod primes up to 10^5, every third the
    square of a linear factor (the ramified shape) and some not monic."""
    for ell in (ell for ell in range(3, 60) if is_prime(ell)):
        for b in range(ell):
            for c in range(ell):
                assert factor_poly_mod_ell((c, b, 1), ell) == _general_factors((c, b, 1), ell)
    rng = random.Random(25)
    shapes = Counter()
    for i in range(2000):
        ell = 2
        while ell == 2 or not is_prime(ell):
            ell = rng.randrange(3, 10**5)
        if i % 3 == 0:
            r = rng.randrange(ell)
            f = (r * r % ell, -2 * r % ell, 1)
        else:
            f = (rng.randrange(ell), rng.randrange(ell), 1)
        lead = 1 if i % 2 else rng.randrange(1, ell)
        factors = factor_poly_mod_ell(tuple(c * lead for c in f), ell)
        assert factors == _general_factors(f, ell), (f, ell)
        shapes[tuple((len(g) - 1, m) for g, m in factors)] += 1
    # split, inert and ramified all occur
    assert set(shapes) == {((1, 1), (1, 1)), ((2, 1),), ((1, 2),)}


def test_quadratic_splitting_checks_its_roots(monkeypatch):
    monkeypatch.setattr(galois, "sqrt_mod", lambda a, ell: 9)
    with pytest.raises(ArithmeticError):
        factor_poly_mod_ell((29, 0, 1), 31)  # x^2 - 2 has the roots 8, 23


def test_sqrt_mod_against_the_table_of_squares():
    for ell in (ell for ell in range(3, 200) if is_prime(ell)):
        squares = {x * x % ell for x in range(ell)}
        for a in range(ell):
            if a in squares:
                assert sqrt_mod(a, ell) ** 2 % ell == a, (a, ell)
            else:
                with pytest.raises(ArithmeticError):
                    sqrt_mod(a, ell)


def test_character_goldens_q31_p5():
    fld = extension_field(31, 1)
    g = fld.from_int(3)
    verify_generator(g)
    chi = lambda n: pth_character(fld.from_int(n), 5, g)
    assert chi(3) == 1  # chi of the generator itself
    assert chi(1) == 0
    assert chi(19) == 4
    assert chi(2) == 4  # 2 = 3^24, 24 = 4 mod 5
    # homomorphism property on all of F_31^x
    for a in range(1, 31):
        for b in range(1, 31):
            assert (chi(a) + chi(b)) % 5 == chi(a * b % 31)


def test_character_extension_field():
    fld = extension_field(5, 2)  # F_25, q - 1 = 24 divisible by 3
    g = find_generator(fld)
    vals = {}
    for enc in range(1, 25 + 1):
        x = fld.from_int(enc)
        if x.is_zero():
            continue
        vals[enc] = pth_character(x, 3, g)
    assert sorted(set(vals.values())) == [0, 1, 2]
    # kernel has index 3: each value hit (q-1)/3 = 8 times
    for v in (0, 1, 2):
        assert sum(1 for k in vals.values() if k == v) == 8


def test_character_undefined_and_generator_errors():
    fld = extension_field(31, 1)
    g = fld.from_int(3)
    with pytest.raises(CharacterUndefined):
        pth_character(fld.from_int(2), 7, g)  # 7 does not divide 30
    with pytest.raises(CharacterUndefined):
        pth_character(fld.zero(), 5, g)
    with pytest.raises(GeneratorError):
        verify_generator(fld.from_int(2))  # 2 has order 5 mod 31
    with pytest.raises(GeneratorError):
        pth_character(fld.from_int(2), 5, fld.from_int(5))  # 5^3 = 125 = 1 mod 31


def _fq_character(x, p, g):
    """The order-p character by FqElement powers, the extension-field kernel."""
    e = (x.field.order - 1) // p
    zeta, y = g**e, x**e
    return next(k for k in range(p) if zeta**k == y)


def test_prime_field_characters_match_the_fq_element_kernel():
    """Every x in F_ell^x, ell = 1 mod p below 200, p = 2, 3, 5, 7."""
    pairs = [(ell, p) for p in (2, 3, 5, 7) for ell in range(3, 200)
             if is_prime(ell) and ell % p == 1]
    assert len(pairs) == 45 + 21 + 10 + 6
    for ell, p in pairs:
        fld = extension_field(ell, 1)
        g = find_generator(fld)
        for n in range(1, ell):
            x = fld.from_int(n)
            assert pth_character(x, p, g) == _fq_character(x, p, g), (ell, p, n)


def test_prime_field_generator_proof_matches_the_fq_element_kernel():
    """verify_generator in integers mod ell refuses exactly the elements
    whose FqElement order proof fails, with the same message."""
    for ell in (ell for ell in range(2, 100) if is_prime(ell)):
        fld = extension_field(ell, 1)
        fac = factor_int(ell - 1)
        for n in range(1, ell):
            x = fld.from_int(n)
            fault = order_fault(x, ell - 1, fac, operator.mul, fld.one())
            if fault is None:
                verify_generator(x)
            else:
                with pytest.raises(GeneratorError) as err:
                    verify_generator(x)
                assert str(err.value) == f"element {x.coords}: {fault}"


def test_character_refuses_a_generator_of_another_field():
    """An element of F_31 with a generator of F_11, and an element of F_25
    with a generator of F_25 presented by another modulus."""
    with pytest.raises(CharacterUndefined):
        pth_character(extension_field(31, 1).from_int(3), 5, find_generator(extension_field(11, 1)))
    fld = extension_field(5, 2)
    other = FqField(5, 2, (3, 0, 1))
    assert fld.modulus != other.modulus
    with pytest.raises(CharacterUndefined):
        pth_character(fld.from_int(7), 3, find_generator(other))


def test_find_generator_int_small_primes():
    # classical least primitive roots
    expect = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 17: 3, 19: 2, 23: 5, 31: 3}
    for ell, g in expect.items():
        assert find_generator(extension_field(ell, 1)).encode() == g


def _least_generator_from_two(fld):
    """The least encoding from 2 up whose powers reach all q - 1 units,
    constants of F_ell included, with orders counted by repeated products."""
    one = fld.one()
    for enc in range(2, fld.order):
        x = fld.from_int(enc)
        if x.is_zero():
            continue
        y, order = x, 1
        while y != one:
            y, order = y * x, order + 1
        if order == fld.order - 1:
            return x
    raise AssertionError("no generator")


def test_find_generator_skips_the_prime_field_constants_harmlessly():
    for ell in (2, 3, 5, 7, 11, 13):
        for f in (2, 3):
            fld = extension_field(ell, f)
            assert find_generator(fld) == _least_generator_from_two(fld), (ell, f)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n]


def test_fq_encoding_roundtrip():
    fld = extension_field(3, 3)
    for n in range(27):
        assert fld.from_int(n).encode() == n
    x = fld.from_int(5)
    y = fld.from_int(19)
    assert (x * y * x.inverse()).encode() == y.encode()



def _powers(g, mul, one):
    """{g^k: k} for k below the order of g, by repeated products."""
    logs, y, k = {}, one, 0
    while y not in logs:
        logs[y] = k
        y, k = mul(y, g), k + 1
    return logs


def test_discrete_log_against_brute_logs_in_prime_fields():
    """Pohlig-Hellman logs in F_ell, as integers mod ell, for every ell < 200
    against the table of powers of the generator, which must be the least
    primitive root.  17 - 1 = 2^4 and 163 - 1 = 2*3^4 repeat a prime factor;
    F_2^x has order 1 and the empty factorization."""
    ells = [ell for ell in range(2, 200) if is_prime(ell)]
    assert {2, 17, 163} <= set(ells)
    for ell in ells:

        def mul(a, b):
            return a * b % ell

        g = find_generator(extension_field(ell, 1)).encode()
        assert g == next(a for a in range(1, ell) if len(_powers(a, mul, 1)) == ell - 1), ell
        group = CyclicGroup(g, factor_int(ell - 1), mul, 1)
        assert group.order == ell - 1
        logs = _powers(g, mul, 1)
        for x in range(1, ell):
            assert group.log(x) == logs[x], (ell, x)
        with pytest.raises(ArithmeticError):
            group.log(0)


def test_discrete_log_against_brute_logs_in_quadratic_extensions():
    for ell in [ell for ell in range(2, 24) if is_prime(ell)]:
        fld = extension_field(ell, 2)
        g = find_generator(fld)
        group = CyclicGroup(g, factor_int(fld.order - 1), operator.mul, fld.one())
        logs = _powers(g, operator.mul, fld.one())
        assert len(logs) == fld.order - 1, ell
        for x, k in logs.items():
            assert group.log(x) == k, (ell, x)
        with pytest.raises(ArithmeticError):
            group.log(fld.zero())


def test_discrete_log_refuses_a_non_generator():
    """g^r for a prime r | n has order n/r, and g has an order that does not
    divide (ell - 1)/2: neither is taken as a generator of that order."""
    for ell in (7, 11, 17, 31, 163, 433):

        def mul(a, b):
            return a * b % ell

        g = find_generator(extension_field(ell, 1)).encode()
        fac = factor_int(ell - 1)
        for r in fac:
            with pytest.raises(ArithmeticError):
                CyclicGroup(pow(g, r, ell), fac, mul, 1)
        with pytest.raises(ArithmeticError):
            CyclicGroup(g, factor_int((ell - 1) // 2), mul, 1)
    fld = extension_field(5, 2)
    with pytest.raises(ArithmeticError):
        CyclicGroup(find_generator(fld) ** 2, factor_int(24), operator.mul, fld.one())
