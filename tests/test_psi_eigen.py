"""End-to-end pairing reports, eigensystem matching, degree-2 vanishing."""

import random
from itertools import product as iter_product
from math import lcm

import pytest

from torushecke.classnumber import real_quadratic_field
from torushecke.cli import moduli_of_norm, moduli_upto
from torushecke.eigen import (
    EigenReport,
    _p_prime_part,
    eigensystem_report,
    multiplicative_order,
)
from torushecke.errors import BudgetShortfall
from torushecke.exterior import MultiVector
from torushecke.fplinalg import FpRankAccumulator
from torushecke.galois import extension_field, find_generator
from torushecke.hecke import (
    CohomologyClass,
    HeckeElement,
    TpScan,
    degree_two_pullback,
    hecke_apply,
    psi_report,
    t1_primes,
)
from torushecke.ideals import rational_ideal, unit_ideal
from torushecke.rayclass import RayClassGroup, ray_class_group
from torushecke.units import unit_image_in_modulus


def fq_eigensystem_report(G: RayClassGroup, scan: TpScan):
    """The census element by element over F_{p^k}: the reference oracle."""
    p = scan.p
    factors = G.invariant_factors()
    primed = tuple(_p_prime_part(d, p) for d in factors)
    m = lcm(*primed) if primed else 1
    k = multiplicative_order(p, m)
    field = extension_field(p, k)
    gen = find_generator(field)
    zeta = gen ** ((field.order - 1) // m)
    zero = field.zero()

    h = G.order
    r = G.field.unit_rank
    coords = [G.snf_coords(i) for i in range(h)]
    weights = tuple(m // dp for dp in primed)
    gen_classes = G.generators

    phi = scan.certificate[0] if scan.certificate else None
    lifted_phi = None
    if phi is not None:
        lifted_phi = tuple(field.element((val,) + (0,) * (k - 1)) for val in phi.values)

    def character_value(exps, class_idx):
        e = sum(c * x * w for c, x, w in zip(exps, coords[class_idx], weights)) % m
        return zeta**e

    count = 0
    matched = True
    witness = phi is not None
    for exps in iter_product(*[range(dp) for dp in primed]):
        count += 1
        vec0 = [character_value(exps, b) for b in range(h)]
        # degree 0: shift by each generator must scale by the character
        for z in gen_classes:
            ev = character_value(exps, z)
            for b in range(h):
                if vec0[G.multiply(z, b)] != ev * vec0[b]:
                    matched = False
        # degree 1: same eigensystem on each exterior coordinate block
        vec1 = [tuple(vec0[b] if j == 0 else zero for j in range(r)) for b in range(h)]
        for z in gen_classes:
            ev = character_value(exps, z)
            for b in range(h):
                moved = vec1[G.multiply(z, b)]
                scaled = tuple(ev * c for c in vec1[b])
                if moved != scaled:
                    matched = False
        if not any(c != zero for c in vec0):
            matched = False
        # degree-raising witness: a certificate operator sends the degree-0
        # eigenvector to phi tensor itself, nonzero whenever phi is
        if lifted_phi is not None:
            image = [tuple(vec0[b] * c for c in lifted_phi) for b in range(h)]
            if not any(any(c != zero for c in row) for row in image):
                witness = False
            for z in gen_classes:
                ev = character_value(exps, z)
                for b in range(h):
                    moved = image[G.multiply(z, b)]
                    scaled = tuple(ev * c for c in image[b])
                    if moved != scaled:
                        matched = False

    return EigenReport(
        p=p,
        extension_degree=k,
        count=count,
        matched_both_degrees=matched,
        degree_one_witness=witness,
        t_p=scan.t_p,
    )


def test_psi_sqrt2_trivial_modulus(F2, one2, stages):
    rep = psi_report(*stages(F2, one2, 5))
    assert rep.h_plus == 1
    assert rep.index == 4
    assert rep.hypothesis is True
    assert (rep.r, rep.r_p, rep.delta_p, rep.t_p) == (1, 1, 0, 1)
    assert (rep.dim_H0, rep.dim_H1) == (1, 1)
    assert (rep.dim_domain, rep.dim_image) == (1, 1)
    assert rep.is_isomorphism
    assert rep.dim_image == rep.h_plus * rep.t_p


def test_psi_sqrt2_mod_seven(F2, seven2, stages):
    rep = psi_report(*stages(F2, seven2, 5))
    assert rep.h_plus == 12
    assert rep.index == 12
    assert rep.hypothesis is True
    assert (rep.r_p, rep.delta_p, rep.t_p) == (1, 0, 1)
    assert (rep.dim_H0, rep.dim_H1, rep.dim_domain, rep.dim_image) == (12, 12, 12, 12)
    assert rep.is_isomorphism


def test_psi_obstructed_prime_gives_zero_image(F2, seven2, stages):
    # p = 3 divides the unit index 12: the pairing collapses
    rep = psi_report(*stages(F2, seven2, 3))
    assert rep.hypothesis is False
    assert (rep.r_p, rep.delta_p, rep.t_p) == (1, 1, 0)
    assert (rep.dim_H0, rep.dim_H1) == (12, 12)
    assert (rep.dim_domain, rep.dim_image) == (0, 0)
    assert not rep.is_isomorphism
    assert rep.t_p == rep.r_p - rep.delta_p


def test_psi_rank_identity_across_moduli(F3, stages):
    for nm in (1, 11, 13):
        rep = psi_report(*stages(F3, rational_ideal(nm, F3), 5))
        assert rep.t_p == rep.r_p - rep.delta_p
        assert rep.dim_image == rep.h_plus * rep.t_p


def test_psi_reports_a_short_image_instead_of_raising(F2, seven2, stages):
    G, E, scan = stages(F2, seven2, 5)
    rep = psi_report(G, E, scan._replace(visited=()))
    # no operator applied: the image is measured as zero, not h_plus * t_p
    assert (rep.dim_domain, rep.dim_image) == (12, 0)
    assert not rep.is_isomorphism


def test_eigen_sqrt3_two_characters(F3, stages):
    G, _, scan = stages(F3, unit_ideal(F3), 5)
    rep = eigensystem_report(G, scan)
    assert rep.count == 2
    assert rep.extension_degree == 1
    assert rep.matched_both_degrees
    assert rep.degree_one_witness
    assert rep.t_p == 1


def test_eigen_sqrt2_mod_seven(F2, seven2, stages):
    G, _, scan = stages(F2, seven2, 5)
    rep = eigensystem_report(G, scan)
    # group is Z/2 x Z/6; p'-parts keep all 12 characters, realized over F_25
    assert rep.count == 12
    assert rep.extension_degree == 2
    assert rep.matched_both_degrees
    assert rep.degree_one_witness


def test_eigen_obstructed_prime_no_witness(F2, seven2, stages):
    G, _, scan = stages(F2, seven2, 3)
    rep = eigensystem_report(G, scan)
    # p-parts drop out: 12 = 4 * 3 leaves 4 prime-to-3 characters
    assert rep.count == 4
    assert rep.t_p == 0
    assert rep.matched_both_degrees
    assert not rep.degree_one_witness


def test_multiplicative_order_basics():
    assert multiplicative_order(5, 1) == 1
    assert multiplicative_order(5, 2) == 1
    assert multiplicative_order(5, 6) == 2
    assert multiplicative_order(3, 2) == 1
    assert multiplicative_order(2, 9) == 6
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)


def test_degree_two_block_vanishes(F2, one2):
    rng = random.Random(8)
    stream = t1_primes(F2, one2, 5)
    pool = [next(stream) for _ in range(12)]
    G = ray_class_group(unit_image_in_modulus(F2, one2))
    for v in rng.sample(pool, 6):
        block = degree_two_pullback(v, G, 5)
        assert block.degree == 2
        assert block.is_zero()
        assert len(block.components) == 1


def _bar_cocycle_check(n):
    """The carry function is a 2-cocycle on Z/n with values in Z."""

    def c(a, b):
        return (a % n + b % n) // n

    for a in range(n):
        for b in range(n):
            for x in range(n):
                lhs = c(b, x) - c((a + b) % n, x) + c(a, (b + x) % n) - c(a, b)
                assert lhs == 0
    return True


def _floor_trivializes(n, span):
    """Pulled back along Z -> Z/n the carry becomes the coboundary of floor."""
    for a in range(-span, span):
        for b in range(-span, span):
            carry = (a % n + b % n) // n
            assert carry == (a + b) // n - a // n - b // n
    return True


def test_carry_cocycle_oracle():
    # n is a residue group order q - 1 with p dividing it
    for n, p in ((10, 5), (22, 11)):
        assert n % p == 0
        assert _bar_cocycle_check(n)
        assert _floor_trivializes(n, 3 * n)


def test_budget_shortfall_is_raised_not_reported(F2, one2, stages):
    G, E, scan = stages(F2, one2, 5, budget=0)
    with pytest.raises(BudgetShortfall):
        psi_report(G, E, scan)
    rep = eigensystem_report(G, scan)
    # eigen census tolerates an empty scan: no witness is claimed
    assert not rep.degree_one_witness


SWEEP_D = (2, 3, 5, 6, 7, 10, 11, 13)


def test_census_matches_the_fq_oracle_on_the_sweep(stages):
    # the fields and primes of acceptance criterion 4, moduli of norm <= 10
    seen = 0
    for d in SWEEP_D:
        F = real_quadratic_field(d)
        pairs = moduli_upto(F, 10)
        for p in (3, 5, 7):
            for modulus, norm in pairs:
                if norm % p == 0:
                    continue
                G, _, scan = stages(F, modulus, p)
                assert eigensystem_report(G, scan) == fq_eigensystem_report(G, scan), (
                    d,
                    modulus.hnf,
                    p,
                )
                seen += 1
    assert seen == 172


def test_census_sees_a_corrupted_multiplication_table(F2, seven2, stages):
    G, _, scan = stages(F2, seven2, 5)
    # h_wide is 1, so the law's one cocycle entry is the shift of the identity
    # lift; a nonzero shift moves every product off the SNF homomorphism
    assert G.shift == ((tuple(0 for _ in G.unit_quotient.factors),),)
    broken = G._replace(shift=(((1,) + G.shift[0][0][1:],),))
    for census in (eigensystem_report, fq_eigensystem_report):
        assert census(G, scan).matched_both_degrees
        rep = census(broken, scan)
        assert not rep.matched_both_degrees
        assert rep.count == 12


def full_width_dim_image(G: RayClassGroup, scan: TpScan):
    """The pairing image measured on whole cohomology classes: the reference
    oracle.  Every scanned operator is applied to every class indicator and
    the flattened images are stacked into one h * r accumulator."""
    p = scan.p
    r = G.field.unit_rank
    h = G.order
    acc = FpRankAccumulator(p, h * r)
    for phi in scan.visited:
        op = HeckeElement(p, r, 1, ((G.identity, MultiVector.from_vector(p, r, phi.values)),))
        for a in range(h):
            acc.add(hecke_apply(op, CohomologyClass.indicator(p, r, a, h), G).flatten())
    return acc.rank


def test_block_ranks_match_the_full_width_oracle(F2, stages):
    seen = 0
    for d in SWEEP_D:
        F = real_quadratic_field(d)
        pairs = moduli_upto(F, 10)
        for p in (3, 5, 7):
            for modulus, norm in pairs:
                if norm % p == 0:
                    continue
                G, E, scan = stages(F, modulus, p)
                want = full_width_dim_image(G, scan)
                assert psi_report(G, E, scan).dim_image == want, (d, modulus.hnf, p)
                seen += 1
    assert seen == 172
    # the large-hplus configuration: Q(sqrt2), p = 5, the one modulus of norm 1152
    (modulus,) = moduli_of_norm(F2, 1152)
    G, E, scan = stages(F2, modulus, 5)
    assert G.order == 128
    assert psi_report(G, E, scan).dim_image == full_width_dim_image(G, scan) == 128


def test_pairing_and_census_make_linearly_many_products(F2, stages, monkeypatch):
    # at most one product per (class, scanned operator or generator), plus
    # one row of slack; the class-by-class operator application made h^2 * t
    (modulus,) = moduli_of_norm(F2, 1152)
    G, E, scan = stages(F2, modulus, 5)
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method.__name__)
            return method(*args)

        return wrapper

    for name in ("multiply", "inverse"):
        monkeypatch.setattr(RayClassGroup, name, counted(getattr(RayClassGroup, name)))
    psi = psi_report(G, E, scan)
    census = eigensystem_report(G, scan)
    assert psi.is_isomorphism and census.matched_both_degrees
    n_gens = len(G.unit_quotient.factors) + len(G.wide_reps) - 1
    assert 0 < len(calls) <= G.order * (len(scan.visited) + n_gens + 1)
