"""End-to-end pairing reports, eigensystem matching, degree-2 vanishing."""

import random
from functools import reduce
from itertools import product as iter_product
from math import lcm
from operator import mul

import pytest

from torushecke.abgroup import QuotientStructure
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
from galois_oracles import extension_field
from torushecke.galois import find_generator
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


def generators(G: RayClassGroup):
    """Q's basis vectors, then the lifts (k, 0) of the wide representatives."""
    n = len(G.unit_quotient.factors)
    basis = [(0, tuple(int(i == j) for i in range(n))) for j in range(n)]
    lifts = [(k, (0,) * n) for k in range(1, len(G.wide_reps))]
    return tuple(G._encode(k, q) for k, q in basis + lifts)


def per_class_eigensystem_report(G: RayClassGroup, scan: TpScan):
    """The census class by class in exponent arithmetic: every generator
    shift against every class, O(|G| * gens) products.  A reference oracle."""
    p = scan.p
    primed = tuple(_p_prime_part(d, p) for d in G.invariant_factors())
    coords = [G.snf_coords(i) for i in range(G.order)]
    # the shift by z scales every character by its value at z
    matched = all(
        (xzb - xz - xb) % dp == 0
        for z in generators(G)
        for b in range(G.order)
        for xzb, xz, xb, dp in zip(coords[G.multiply(z, b)], coords[z], coords[b], primed)
    )
    phi = scan.certificate[0] if scan.certificate else None
    return EigenReport(
        p=p,
        extension_degree=multiplicative_order(p, lcm(*primed)),
        count=reduce(mul, primed, 1),
        matched_both_degrees=matched,
        degree_one_witness=phi is not None and any(v % p for v in phi.values),
        t_p=scan.t_p,
    )


def per_class_dim_image(G: RayClassGroup, scan: TpScan):
    """The pairing image as the sum of its class-block ranks: every scanned
    row lands in the block z^-1 * a of every class a.  A reference oracle."""
    p = scan.p
    z_inv = G.inverse(G.identity)
    blocks = [FpRankAccumulator(p, G.field.unit_rank) for _ in range(G.order)]
    for phi in scan.visited:
        for a in range(G.order):
            blocks[G.multiply(z_inv, a)].add(phi.values)
    return sum(acc.rank for acc in blocks)


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
    gen_classes = generators(G)

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


def test_census_matches_the_fq_oracle_on_the_sweep(F2, stages):
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
                census = eigensystem_report(G, scan)
                assert census == fq_eigensystem_report(G, scan), (d, modulus.hnf, p)
                assert census == per_class_eigensystem_report(G, scan), (d, modulus.hnf, p)
                seen += 1
    assert seen == 172
    # the large-hplus configuration, against the class-by-class census
    (modulus,) = moduli_of_norm(F2, 1152)
    G, _, scan = stages(F2, modulus, 5)
    census = eigensystem_report(G, scan)
    assert census == per_class_eigensystem_report(G, scan)
    assert census.matched_both_degrees and census.count == 128


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
                assert per_class_dim_image(G, scan) == want, (d, modulus.hnf, p)
                assert psi_report(G, E, scan).dim_image == want, (d, modulus.hnf, p)
                seen += 1
    assert seen == 172
    # the large-hplus configuration: Q(sqrt2), p = 5, the one modulus of norm 1152
    (modulus,) = moduli_of_norm(F2, 1152)
    G, E, scan = stages(F2, modulus, 5)
    assert G.order == 128
    want = full_width_dim_image(G, scan)
    assert psi_report(G, E, scan).dim_image == per_class_dim_image(G, scan) == want == 128


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


def _class_number_three_stages(stages):
    # Q(sqrt229), h_wide 3, a modulus over 5 with Q = Z/4, so G = Z/12
    F = real_quadratic_field(229)
    modulus = moduli_of_norm(F, 5)[0]
    G, E, scan = stages(F, modulus, 7)
    assert len(G.wide_reps) == 3 and G.unit_quotient.factors == (4,)
    return G, E, scan


def _bumped(G, s):
    """s + (1, ..., 1) in Q: a shift entry moved off its true value."""
    return tuple((x + 1) % f for x, f in zip(s, G.unit_quotient.factors))


def test_pairing_refuses_an_identity_that_moves_a_code(stages):
    G, E, scan = _class_number_three_stages(stages)
    assert psi_report(G, E, scan).dim_image == 12 * scan.t_p
    row = G.wide_mult[0]
    permuted = G._replace(wide_mult=((row[1], row[0], row[2]),) + G.wide_mult[1:])
    shifts = G.shift[0]
    shifted = G._replace(shift=((shifts[0], _bumped(G, shifts[1]), shifts[2]),) + G.shift[1:])
    for broken in (permuted, shifted):
        with pytest.raises(ArithmeticError, match="identity shift"):
            psi_report(broken, E, scan)


def test_census_sees_a_corrupted_cocycle_entry_at_class_number_three(stages):
    G, _, scan = _class_number_three_stages(stages)
    shifts = G.shift[1]
    broken = G._replace(
        shift=G.shift[:1] + ((shifts[0], shifts[1], _bumped(G, shifts[2])),) + G.shift[2:]
    )
    for census in (eigensystem_report, per_class_eigensystem_report):
        assert census(G, scan).matched_both_degrees
        assert not census(broken, scan).matched_both_degrees


def test_census_sees_q_wrap_below_the_order_of_its_image(stages):
    # Q = Z/4 read as Z/2: every lifted product still adds, but q wraps at
    # 2 where its image in G = Z/12 has order 4, which only the wraps see
    G, _, scan = _class_number_three_stages(stages)
    broken = G._replace(unit_quotient=G.unit_quotient._replace(factors=(2,)))
    for census in (eigensystem_report, per_class_eigensystem_report):
        assert not census(broken, scan).matched_both_degrees


@pytest.mark.parametrize("norm, prime, order", [(1152, 5, 128), (1334025, 13, 69120)])
def test_pairing_and_census_cost_does_not_grow_with_the_group(
    F2, stages, monkeypatch, norm, prime, order
):
    # one projection per wide pair, wide lift and wrap of Q, and one
    # inverse, at |G| = 128 and at |G| = 69120 alike
    modulus = moduli_of_norm(F2, norm)[0]
    G, E, scan = stages(F2, modulus, prime)
    assert G.order == order
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method.__name__)
            return method(*args)

        return wrapper

    monkeypatch.setattr(QuotientStructure, "project", counted(QuotientStructure.project))
    for name in ("multiply", "inverse"):
        monkeypatch.setattr(RayClassGroup, name, counted(getattr(RayClassGroup, name)))
    psi = psi_report(G, E, scan)
    census = eigensystem_report(G, scan)
    assert psi.dim_image == psi.dim_domain == order * scan.t_p
    assert census.matched_both_degrees
    h_wide = len(G.wide_reps)
    assert 0 < len(calls) <= h_wide**2 + len(G.unit_quotient.factors) + h_wide + 2
