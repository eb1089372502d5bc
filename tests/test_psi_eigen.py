"""End-to-end pairing reports, eigensystem matching, degree-2 vanishing."""

import random

import pytest

from torushecke.eigen import eigensystem_report, multiplicative_order
from torushecke.errors import BudgetShortfall
from torushecke.hecke import degree_two_pullback, psi_report, t1_primes
from torushecke.ideals import rational_ideal, unit_ideal
from torushecke.rayclass import ray_class_group
from torushecke.units import unit_image_in_modulus


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
