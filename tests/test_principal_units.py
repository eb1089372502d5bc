"""Principal ideal decisions, fundamental units, congruence unit subgroups."""

from math import isqrt

import pytest

from class_oracles import degree_one_primes_over
from torushecke import units
from torushecke.classnumber import real_quadratic_field
from torushecke.errors import TorsionObstruction, ValidationError
from torushecke.field import (
    FieldDescriptor,
    element_mul,
    element_norm,
    is_totally_positive,
    load_descriptor,
    validate_descriptor,
)
from torushecke.ideals import (
    IdealHNF,
    conjugate_ideal,
    ideal_product,
    principal_ideal,
    rational_ideal,
    unit_ideal,
)
from torushecke.primes import factor_prime, prime_to_ideal
from torushecke.principal import principal_generator
from torushecke.units import (
    compute_rp,
    e_units,
    fundamental_unit_real_quadratic,
    unit_generators,
    unit_image_in_modulus,
    unit_power_product,
)


def _pell_fundamental(d):
    """Least positive (x, y) with x*x - d*y*y = +-1, from the continued
    fraction of sqrt d up to the end of its first period."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0:
            return h, k
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def _brute_pell(d):
    # least y > 0 with d*y^2 +- 1 a perfect square
    y = 1
    while True:
        for s in (-1, 1):
            t = d * y * y + s
            if t >= 0 and isqrt(t) ** 2 == t:
                return isqrt(t), y
        y += 1


def _unit_by_norm_equation_search(d):
    """Reference oracle: the Pell solution for Z[sqrt d]; for d = 1 mod 4,
    the least Y > 0 with X^2 - d*Y^2 = +-4, searched up to twice the Pell y."""
    x, y = _pell_fundamental(d)
    if d % 4 != 1:
        return (x, y)
    for Y in range(1, 2 * y + 1):
        for s in (-4, 4):
            t = d * Y * Y + s
            if t >= 0 and isqrt(t) ** 2 == t:
                return ((isqrt(t) - Y) // 2, Y)
    raise AssertionError(f"no +-4 solution for d = {d}")


def test_fundamental_unit_against_norm_equation_search():
    squarefree = [d for d in range(2, 200) if all(d % (f * f) for f in range(2, isqrt(d) + 1))]
    for d in squarefree + [229, 249]:
        assert fundamental_unit_real_quadratic(d) == _unit_by_norm_equation_search(d), d
    # the oracle's continued fraction against a plain search over y
    for d in squarefree:
        if d <= 50:
            assert _pell_fundamental(d) == _brute_pell(d), d


def _continued_fraction_unit(min_poly):
    """The first continued-fraction convergent p/q of theta = (-c1 + sqrt D)/2
    with x + y*theta of norm +-1, where x = p + c1*q and y = q.

    A unit eps = x + y*theta > 1 has |x + y*theta'| = 1/eps, so (x - c1*y)/y
    approximates theta to within 1/(eps*y^2) < 1/(2y^2); by Legendre it is a
    convergent, and the first convergent of norm +-1 is eps itself.
    """
    c0, c1 = min_poly[0], min_poly[1]
    D = c1 * c1 - 4 * c0
    r = isqrt(D)
    # complete quotient (P + sqrt D)/Q with Q > 0, and the last two convergents
    P, Q = -c1, 2
    p_prev, p, q_prev, q = 0, 1, 1, 0
    while True:
        a = (P + r) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        x, y = p + c1 * q, q
        if x * x - c1 * x * y + c0 * y * y in (1, -1):
            return (x, y)
        P = a * Q - P
        Q = (D - P * P) // Q


def test_rho_walk_unit_matches_the_continued_fraction():
    for d in range(2, 2000):
        if isqrt(d) ** 2 == d:
            continue
        min_poly = (-(d - 1) // 4, -1, 1) if d % 4 == 1 else (-d, 0, 1)
        assert fundamental_unit_real_quadratic(d) == _continued_fraction_unit(min_poly), d


def test_fundamental_unit_goldens():
    assert fundamental_unit_real_quadratic(2) == (1, 1)
    assert fundamental_unit_real_quadratic(3) == (2, 1)
    assert fundamental_unit_real_quadratic(5) == (0, 1)  # theta = (1+sqrt5)/2
    assert fundamental_unit_real_quadratic(10) == (3, 1)
    assert fundamental_unit_real_quadratic(13) == (1, 1)  # theta = (1+sqrt13)/2
    assert fundamental_unit_real_quadratic(249) == (8011739, 1084152)
    with pytest.raises(ValueError):
        fundamental_unit_real_quadratic(9)


def test_fundamental_unit_is_a_unit_of_the_order(F2, F3, F5):
    for F in (F2, F3, F5):
        u = F.fundamental_units[0]
        assert element_norm(u, F) in (1, -1)


def test_principal_generator_found(F2):
    gen = principal_generator(rational_ideal(7, F2), F2)
    assert gen is not None
    assert principal_ideal(gen, F2) == rational_ideal(7, F2)
    # split prime over 7 is principal in the class-number-1 field
    v = factor_prime(7, F2)[0]
    gen = principal_generator(prime_to_ideal(v, F2), F2)
    assert gen is not None
    assert abs(element_norm(gen, F2)) == 7


def test_principal_generator_not_found(F10):
    # Q(sqrt10) has class number 2; primes over 3 are not principal since
    # x^2 - 10 y^2 = +-3 is insoluble mod 5
    v3 = prime_to_ideal(factor_prime(3, F10)[0], F10)
    assert principal_generator(v3, F10) is None
    # but their squares times conjugates etc. can be; (3) itself is
    assert principal_generator(rational_ideal(3, F10), F10) is not None


def test_principal_generator_refuses_a_field_that_is_not_real_quadratic(cubic_descriptors):
    # no complete test exists there, and a class number 1 field never asks
    F = load_descriptor(cubic_descriptors[0])
    with pytest.raises(ValidationError, match="real quadratic"):
        principal_generator(rational_ideal(2, F), F)


def _window_scan(a, F):
    """Scan the norm equation u^2 - c1*u*v + c0*v^2 = +-m over the v window.

    Any generator can be slid by unit powers until both embeddings are at
    most sqrt(m) times the unit height bound, which caps |v| by the window
    below; the scan is therefore exhaustive and False is a proof.
    """
    m = a.norm
    c0, c1 = F.min_poly[0], F.min_poly[1]
    D = c1 * c1 - 4 * c0
    e = F.fundamental_units[0]
    height = abs(e[0]) + abs(e[1]) * (1 + max(abs(c0), abs(c1)))
    for v in range(2 * (isqrt(m) + 1) * height + 1):
        for sign in (1, -1):
            delta = D * v * v + 4 * sign * m
            if delta < 0:
                continue
            t = isqrt(delta)
            if t * t != delta:
                continue
            for tt in (t, -t) if t else (0,):
                num = c1 * v + tt
                if num % 2:
                    continue
                # (-u, -v) generates the same ideal, so v >= 0 loses nothing
                cand = (num // 2, v)
                if cand != (0, 0) and a.contains(cand) and principal_ideal(cand, F) == a:
                    return True
    return False


def _order(min_poly):
    """Descriptor of a non-maximal order Z[sqrt n], unit from the continued fraction."""
    F = FieldDescriptor(
        label=f"Z[sqrt{-min_poly[0]}]",
        min_poly=min_poly,
        signature=(2, 0),
        torsion_order=2,
        torsion_generator=(-1, 0),
        fundamental_units=(_continued_fraction_unit(min_poly),),
        class_number=1,
        provenance="ingested",
    )
    validate_descriptor(F)
    return F


def test_rho_walk_decides_principality_like_the_window_scan(brute_ideals):
    """Every ideal of norm <= 30 and every a*conj(b) over degree-one primes
    up to 13, including non-invertible ideals of non-maximal orders."""
    fields = [real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13, 15, 79, 223, 229)]
    fields += [_order(min_poly) for min_poly in ((-5, 0, 1), (-12, 0, 1), (-45, 0, 1))]
    statuses = []
    for F in fields:
        ideals = [IdealHNF(hnf) for _, hnf in brute_ideals(F, 30)]
        primes = [v for ell in (2, 3, 5, 7, 11, 13) for v in degree_one_primes_over(F, ell)]
        ideals += [ideal_product(a, conjugate_ideal(b, F), F) for a in primes for b in primes]
        for a in ideals:
            gen = principal_generator(a, F)
            found = gen is not None
            assert found == _window_scan(a, F), (F.label, a)
            if found:
                assert principal_ideal(gen, F) == a
            statuses.append(found)
    assert (len(statuses), statuses.count(False)) == (885, 292)


def test_unit_power_product(F2):
    # zeta^1 * eps^2 = -(3 + 2 sqrt2)
    assert unit_power_product((1, 2), F2) == (-3, -2)
    # inverse exponent gives the unit inverse
    assert element_mul(
        unit_power_product((0, 1), F2), unit_power_product((0, -1), F2), F2
    ) == F2.one()


def test_e_units_trivial_modulus_sqrt2(F2, one2):
    E = e_units(unit_image_in_modulus(F2, one2), 5)
    assert E.index == 4
    assert E.rank == 1
    values = tuple(unit_power_product(col, F2) for col in E.exponent_vectors)
    assert values == ((3, 2),)  # (1+sqrt2)^2, the totally positive generator
    assert E.image_invariant_factors == (2, 2)
    assert E.torsion_order == 1
    eta = values[0]
    assert is_totally_positive(eta, F2)


def test_e_units_trivial_modulus_sqrt3(F3):
    E = e_units(unit_image_in_modulus(F3, unit_ideal(F3)), 5)
    assert E.index == 2
    values = tuple(unit_power_product(col, F3) for col in E.exponent_vectors)
    assert values == ((2, 1),)  # the fundamental unit itself, norm +1
    assert E.image_invariant_factors == (2,)


def test_e_units_mod_seven_sqrt2(F2, seven2):
    ui = unit_image_in_modulus(F2, seven2)
    E = e_units(ui, 5)
    assert E is ui
    assert E.modulus == seven2
    assert E.index == 12
    values = tuple(unit_power_product(col, F2) for col in E.exponent_vectors)
    assert values == ((99, 70),)  # (1+sqrt2)^6
    assert E.image_invariant_factors == (2, 6)
    eta = values[0]
    assert is_totally_positive(eta, F2)
    diff = tuple(a - b for a, b in zip(eta, F2.one()))
    assert seven2.contains(diff)


def _patch_kernel_column(monkeypatch, col):
    # the kernel HNF with its free column replaced: a wrong lattice
    kernel_of_map = units.kernel_of_map

    def tampered(*args):
        kern, quotient = kernel_of_map(*args)
        hnf = tuple(row[:1] + (c,) for row, c in zip(kern.hnf, col))
        return kern._replace(hnf=hnf), quotient

    monkeypatch.setattr(units, "kernel_of_map", tampered)


def test_e_units_refuses_a_generator_that_is_not_totally_positive(monkeypatch, F2, one2):
    # eps = 1 + sqrt2 itself has norm -1
    _patch_kernel_column(monkeypatch, (0, 1))
    with pytest.raises(ArithmeticError, match="not totally positive"):
        unit_image_in_modulus(F2, one2)


def test_e_units_refuses_a_generator_that_is_not_one_mod_the_modulus(monkeypatch, F2, seven2):
    # eps^2 = 3 + 2 sqrt2 is totally positive but not 1 mod 7
    _patch_kernel_column(monkeypatch, (0, 2))
    with pytest.raises(ArithmeticError, match="not 1 mod the modulus"):
        unit_image_in_modulus(F2, seven2)


def test_e_units_torsion_free_for_real_fields(F2, one2):
    # -1 is never totally positive at a real place, so the kernel is free
    for p in (2, 3, 5):
        E = e_units(unit_image_in_modulus(F2, one2), p=p)
        assert E.torsion_order == 1


def test_e_units_p_torsion_obstruction(Fzeta5):
    # cyclotomic quartic: the torsion unit -zeta_5 of order 10 sits inside
    # E((1)) and obstructs p = 2 and p = 5
    ui = unit_image_in_modulus(Fzeta5, unit_ideal(Fzeta5))
    for p in (2, 5):
        with pytest.raises(TorsionObstruction):
            e_units(ui, p=p)
    E = e_units(ui, p=3)
    assert E.torsion_order == 10


def test_rp_and_delta(F2, F5, one2, seven2):
    assert compute_rp(F2, 5) == 1
    assert compute_rp(F2, 3) == 1
    assert compute_rp(F2, 2) == 2  # torsion order 2 adds a coordinate
    assert unit_image_in_modulus(F2, one2).delta_p(5) == 0
    ui = unit_image_in_modulus(F2, seven2)
    assert ui.delta_p(3) == 1  # index 12, one factor divisible by 3
    assert ui.delta_p(5) == 0
    assert ui.index == 12
    assert ui.delta_p(2) == 2


def test_unit_generator_listing(F2):
    gens = unit_generators(F2)
    assert gens == ((-1, 0), (1, 1))
