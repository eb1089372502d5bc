"""Operator algebra on class-indexed exterior blocks, plus the prime scans."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushecke import hecke
from torushecke.errors import BudgetShortfall
from torushecke.exterior import MultiVector
from torushecke.field import is_totally_positive, load_descriptor
from torushecke.fplinalg import fp_rank
from torushecke.classnumber import real_quadratic_field
from torushecke.cli import moduli_of_norm, moduli_upto
from torushecke.galois import find_generator, primes_stream, pth_character
from torushecke.hecke import (
    CohomologyClass,
    HeckeElement,
    ScanRows,
    compute_tp,
    hecke_apply,
    hecke_multiply,
    scan_t1,
    spanning_set,
    t1_primes,
    unit_functional,
)
from torushecke.ideals import rational_ideal, unit_ideal
from torushecke.primes import _min_poly_disc, factor_prime, residue_field, residue_image
from torushecke.rayclass import ray_class_group
from torushecke.units import compute_rp, e_units, unit_image_in_modulus, unit_power_product


def _group2():
    F = real_quadratic_field(3)
    return ray_class_group(unit_image_in_modulus(F, unit_ideal(F)))


def _scale_element(h, c):
    return HeckeElement(
        h.p, h.rank, h.degree, tuple((z, om.scale(c)) for z, om in h.terms)
    )


# --------------------------------------------------------------- algebra laws


def test_shift_convention_is_inverse_multiply():
    """Applying shift(z) to an indicator supports it at z^-1 * a, literally."""
    G = _group2()
    p, rank = 5, 3
    for z in range(G.order):
        op = HeckeElement.shift(z, p, rank)
        for a in range(G.order):
            image = hecke_apply(op, CohomologyClass.indicator(p, rank, a, G.order), G)
            expect = G.multiply(G.inverse(z), a)
            for b, comp in enumerate(image.components):
                assert comp.is_zero() == (b != expect)


def test_nontrivial_shift_swaps_the_two_components():
    G = _group2()
    op = HeckeElement.shift(1, 5, 1)
    one_0 = CohomologyClass.indicator(5, 1, 0, 2)
    one_1 = CohomologyClass.indicator(5, 1, 1, 2)
    assert hecke_apply(op, one_0, G) == one_1
    assert hecke_apply(op, one_1, G) == one_0


def test_shifts_compose_through_the_group():
    G = _group2()
    p, rank = 7, 2
    for z1 in range(2):
        for z2 in range(2):
            prod = hecke_multiply(
                HeckeElement.shift(z1, p, rank), HeckeElement.shift(z2, p, rank), G
            )
            assert prod == HeckeElement.shift(G.multiply(z1, z2), p, rank)


def _operator(p, rank, degree, entries):
    terms = []
    for z, values in entries:
        if degree == 0:
            om = MultiVector.scalar(p, rank, values[0])
        else:
            om = MultiVector.from_vector(p, rank, values)
        terms.append((z, om))
    return HeckeElement(p, rank, degree, tuple(terms))


@st.composite
def operator_pair(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rank = 3
    degs = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    ops = []
    for degree in degs:
        entries = []
        for z in range(2):
            if draw(st.booleans()):
                width = 1 if degree == 0 else rank
                values = tuple(draw(st.integers(0, p - 1)) for _ in range(width))
                entries.append((z, values))
        if not entries:
            entries.append((0, (1,) * (1 if degree == 0 else rank)))
        ops.append(_operator(p, rank, degree, entries))
    return p, ops[0], ops[1]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(operator_pair())
def test_products_graded_commute(pair):
    """H H' = (-1)^(deg deg') H' H over an honest rank-2 class group."""
    p, h1, h2 = pair
    G = _group2()
    sign = (-1) ** (h1.degree * h2.degree) % p
    lhs = hecke_multiply(h1, h2, G)
    rhs = _scale_element(hecke_multiply(h2, h1, G), sign)
    assert lhs == rhs


@settings(max_examples=60, derandomize=True, deadline=None)
@given(operator_pair(), st.integers(0, 1), st.integers(0, 1))
def test_multiply_matches_composition_of_actions(pair, a, start_degree):
    p, h1, h2 = pair
    if h1.degree + h2.degree + start_degree > 3:
        return
    G = _group2()
    c = CohomologyClass.indicator(p, 3, a, G.order)
    if start_degree:
        seed = _operator(p, 3, 1, [(0, (1, 2 % p, 0))])
        c = hecke_apply(seed, c, G)
    both = hecke_apply(hecke_multiply(h1, h2, G), c, G)
    nested = hecke_apply(h1, hecke_apply(h2, c, G), G)
    assert both == nested


def test_degree_zero_orbit_of_indicator_has_size_h_plus(F2, seven2):
    G = ray_class_group(unit_image_in_modulus(F2, seven2))
    assert G.order == 12
    start = CohomologyClass.indicator(3, 1, 1, G.order)
    orbit = {hecke_apply(HeckeElement.shift(z, 3, 1), start, G) for z in range(G.order)}
    assert len(orbit) == G.order


def test_shift_action_is_a_permutation(F2, seven2):
    G = ray_class_group(unit_image_in_modulus(F2, seven2))
    rng = random.Random(20260819)
    indicators = [CohomologyClass.indicator(5, 1, a, G.order) for a in range(G.order)]
    for _ in range(10):
        z = rng.randrange(G.order)
        op = HeckeElement.shift(z, 5, 1)
        images = [hecke_apply(op, c, G) for c in indicators]
        assert len(set(images)) == G.order
        assert set(images) == set(indicators)


def test_cohomology_block_arithmetic():
    c = CohomologyClass.indicator(5, 2, 0, 3)
    assert c.add(c.scale(4)).is_zero()
    assert c.flatten() == (1, 0, 0)
    z = CohomologyClass.zero(5, 2, 1, 3)
    assert z.is_zero() and len(z.flatten()) == 6
    with pytest.raises(ValueError):
        c.add(z)


def test_mixed_model_operations_rejected():
    G = _group2()
    with pytest.raises(ValueError):
        hecke_multiply(HeckeElement.shift(0, 5, 2), HeckeElement.shift(0, 7, 2), G)
    with pytest.raises(ValueError):
        hecke_apply(HeckeElement.shift(0, 5, 2), CohomologyClass.indicator(5, 3, 0, 2), G)


# ----------------------------------------------------------------- the scans


def test_t1_stream_golden_order(F2, one2):
    pairs = []
    for v, phi in scan_t1(e_units(unit_image_in_modulus(F2, one2), 5), 5, budget=4):
        pairs.append((v.ell, v.f, phi.values))
    assert pairs == [
        (11, 2, (0,)),
        (19, 2, (2,)),
        (29, 2, (2,)),
        (31, 1, (4,)),
    ]


def test_t1_stream_skips_p_disc_and_modulus(F2, seven2):
    for v in [v for v, _ in zip(t1_primes(F2, seven2, 5), range(12))]:
        assert v.ell not in (2, 5, 7)
        assert (v.norm - 1) % 5 == 0


def test_t1_residue_degree_filter(F2, one2):
    vs = [v for v, _ in zip(t1_primes(F2, one2, 5, residue_degree=1), range(4))]
    # split rationals contribute both of their degree-1 primes
    assert [v.ell for v in vs] == [31, 31, 41, 41]
    assert all(v.f == 1 for v in vs)
    assert vs[0].g_poly != vs[1].g_poly


def _t1_primes_unfiltered(F, modulus, p, residue_degree=None):
    """t1_primes as it was before the ell^f = 1 mod p prefilter: every ell
    coprime to p, the modulus and disc(min_poly) is factored."""
    disc = _min_poly_disc(F.min_poly)
    nm = modulus.norm
    for ell in primes_stream():
        if ell == p or disc % ell == 0 or nm % ell == 0:
            continue
        for v in factor_prime(ell, F):
            if residue_degree is not None and v.f != residue_degree:
                continue
            if (v.norm - 1) % p == 0:
                yield v


def test_t1_prefilter_keeps_the_stream(F2, F3, cubic_descriptors):
    # a cyclic cubic has no prime of residue degree 2, so its degree-2
    # stream never yields; degree 3 takes its place there
    fields = [(F2, 2), (F3, 2)] + [(load_descriptor(c), 3) for c in cubic_descriptors]
    for F, f in fields:
        for modulus in (unit_ideal(F), rational_ideal(11, F)):
            for p in (2, 3, 5, 7):
                for degree in (1, f, None):
                    got = t1_primes(F, modulus, p, residue_degree=degree)
                    want = _t1_primes_unfiltered(F, modulus, p, residue_degree=degree)
                    assert list(zip(got, range(40))) == list(zip(want, range(40)))


def test_scan_rows_skip_the_primes_dividing_the_norm(F2, cubic_descriptors):
    rows = ScanRows(F2, 3)
    assert next(rows.walk(1))[0].ell == 7
    assert next(rows.walk(7))[0].ell != 7
    assert next(rows.walk(7 * 14))[0].ell not in (2, 7)
    # Q(zeta7)+, p = 3: 13 splits completely; a prime of norm 13 has target 1
    # and scans past 13 to 43, while the unit ideal is certified at 13
    F = load_descriptor(cubic_descriptors[0])
    rows = ScanRows(F, 3)
    one = compute_tp(e_units(unit_image_in_modulus(F, unit_ideal(F)), 3), 3, 50, rows)
    assert [phi.prime.ell for phi in one.visited] == [13, 13]
    for modulus in moduli_of_norm(F, 13):
        E = e_units(unit_image_in_modulus(F, modulus), 3)
        scan = compute_tp(E, 3, 50, rows)
        assert scan.target == 1 and scan.visited
        assert all(phi.prime.ell == 43 for phi in scan.visited)
        assert scan == compute_tp(E, 3, 50)


def _tp_fields(scan):
    return scan.t_p, scan.target, scan.visited, scan.certificate, scan.shortfall


def test_shared_scan_rows_match_a_fresh_scan(cubic_descriptors):
    """compute_tp on one ScanRows per (F, p), read by every modulus in
    turn, against a fresh scan per configuration, at budgets that fall short
    too."""
    sweeps = [(real_quadratic_field(d), 50) for d in (2, 3, 5, 6, 7, 10, 11, 13)]
    sweeps += [(load_descriptor(c), 13) for c in cubic_descriptors]
    shortfalls = 0
    for F, bound in sweeps:
        moduli = moduli_upto(F, bound)
        for p in (3, 5, 7):
            rows = ScanRows(F, p)
            for modulus, norm in moduli:
                if norm % p == 0:
                    continue
                E = e_units(unit_image_in_modulus(F, modulus), p)
                for budget in (50, 1, 2):
                    shared = compute_tp(E, p, budget, rows)
                    assert _tp_fields(shared) == _tp_fields(compute_tp(E, p, budget))
                    shortfalls += shared.shortfall
    assert shortfalls > 0


def test_compute_tp_refuses_rows_of_another_prime(F2, F3, one2):
    E = e_units(unit_image_in_modulus(F2, one2), 5)
    for rows in (ScanRows(F2, 3), ScanRows(F3, 5)):
        with pytest.raises(ValueError, match="scan rows of"):
            compute_tp(E, 5, 50, rows)


def test_scan_rows_keep_no_row_that_raised(monkeypatch, F2, one2):
    built = hecke.generator_characters
    failing = {31}

    def refuse_31(v, p, F):
        if v.ell in failing:
            raise ValueError(f"no characters at {v.label()}")
        return built(v, p, F)

    monkeypatch.setattr(hecke, "generator_characters", refuse_31)
    E = e_units(unit_image_in_modulus(F2, one2), 5)
    rows = ScanRows(F2, 5)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"no characters at \(31, g=\(-8, 1\)\)"):
            compute_tp(E, 5, 50, rows)
    failing.clear()
    assert _tp_fields(compute_tp(E, 5, 50, rows)) == _tp_fields(compute_tp(E, 5, 50))


def test_compute_tp_certificate_golden(F2, one2):
    scan = compute_tp(e_units(unit_image_in_modulus(F2, one2), 5), 5)
    assert (scan.p, scan.t_p, scan.target, scan.shortfall) == (5, 1, 1, False)
    assert len(scan.certificate) == 1
    phi = scan.certificate[0]
    assert phi.prime.ell == 31
    assert phi.prime.g_poly == (23, 1)
    assert phi.values == (4,)
    assert phi.generator_encoding == 3


def test_compute_tp_zero_target_visits_no_prime(F2, seven2):
    # p = 3: delta_3 = 1 eats the whole rank, so E mod 3 has rank 0 and the
    # target 0 is proved without reading a character
    scan = compute_tp(e_units(unit_image_in_modulus(F2, seven2), 3), 3)
    assert scan.target == 0
    assert scan.t_p == 0
    assert not scan.shortfall
    assert scan.visited == ()
    assert scan.consumed == 0
    assert scan.certificate == ()


def _sweep_configurations():
    """(F, modulus, p) of acceptance criterion 4 at moduli of norm <= 10."""
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        F = real_quadratic_field(d)
        for p in (3, 5, 7):
            for modulus, norm in moduli_upto(F, 10):
                if norm % p:
                    yield F, modulus, p


def test_zero_targets_agree_with_the_sampled_floor():
    """Every character vanishes where the target is 0: the first 8 scan
    primes, the floor the scan used to sample, all read 0 on E."""
    F2 = real_quadratic_field(2)
    configs = list(_sweep_configurations())
    configs += [(F2, modulus, 5) for modulus in moduli_of_norm(F2, 431)]
    zero = 0
    for F, modulus, p in configs:
        E = e_units(unit_image_in_modulus(F, modulus), p)
        scan = compute_tp(E, p)
        if scan.target:
            continue
        zero += 1
        assert scan.visited == ()
        rows = [phi.values for _, phi in scan_t1(E, p, budget=8)]
        assert len(rows) == 8
        assert all(row == (0,) * F.unit_rank for row in rows), (F.label, modulus.hnf, p)
    assert zero == 6 + 2


def test_compute_tp_refuses_a_unit_lattice_of_the_wrong_rank(F2, one2, cubic_descriptors):
    # one exponent vector times p leaves E's rank mod p below r_p - delta_p
    zeta7_plus = load_descriptor(cubic_descriptors[0])
    for F, p in ((F2, 5), (zeta7_plus, 3)):
        E = e_units(unit_image_in_modulus(F, unit_ideal(F)), p)
        assert compute_tp(E, p).target == F.unit_rank
        first, *rest = E.exponent_vectors
        tampered = E._replace(exponent_vectors=(tuple(p * x for x in first), *rest))
        with pytest.raises(ArithmeticError, match="r_p - delta_p"):
            compute_tp(tampered, p)


def test_rank_identity_at_the_even_prime(cubic_descriptors, Fzeta5):
    """At p = 2 the zeta coordinate counts: the rank of E's exponent vectors
    mod 2, zeta row included, is r_2 - delta_2, and the scan reaches it.

    With a real place the zeta row is a sum of unit rows (E is totally
    positive), so only Q(zeta5) tells the rows apart: at norm 5 and 25 its E
    is generated by (1, 2), of rank 1 with the zeta row and 0 without."""
    fields = [real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13)]
    fields += [load_descriptor(c) for c in cubic_descriptors]
    targets = []
    for F in fields + [Fzeta5]:
        for modulus, norm in moduli_upto(F, 40):
            if norm % 2 == 0 or (F is Fzeta5 and norm == 1):  # -1 in E((1))
                continue
            E = e_units(unit_image_in_modulus(F, modulus), 2)
            target = compute_rp(F, 2) - E.delta_p(2)
            assert fp_rank(E.exponent_vectors, 2) == target
            scan = compute_tp(E, 2)
            assert (scan.target, scan.t_p, scan.shortfall) == (target, target, False)
            targets.append(target)
    # -1 is never in a real E; there target 1 needs a unit of norm +1
    assert (targets.count(0), targets.count(1)) == (150, 15 + 10)


def test_zeta_row_is_dropped_unless_p_divides_w(Fzeta5):
    # w = 10, p = 3: no character sees zeta, and counting its coordinate would
    # give E = (8, 3), (1, 3) or (2, 3) at norm 31 rank 1 against a target of 0
    ranks = []
    for modulus in moduli_of_norm(Fzeta5, 31):
        E = e_units(unit_image_in_modulus(Fzeta5, modulus), 3)
        ranks.append(fp_rank(E.exponent_vectors, 3))
        scan = compute_tp(E, 3)
        assert (scan.target, scan.visited) == (0, ())
    assert sorted(ranks) == [0, 1, 1, 1]


def test_compute_tp_budget_shortfall(F2, one2):
    scan = compute_tp(e_units(unit_image_in_modulus(F2, one2), 5), 5, budget=0)
    assert scan.shortfall
    assert scan.t_p == 0 and scan.target == 1


def test_unit_functional_rejects_wrong_residue_order(F2, one2):
    E = e_units(unit_image_in_modulus(F2, one2), 5)
    v = next(iter(t1_primes(F2, one2, 3)))
    assert (v.norm - 1) % 5 != 0
    with pytest.raises(ValueError):
        unit_functional(v, E, 5)


def test_a_prime_label_names_its_balanced_factor(F2, one2):
    # both primes over 41 once read "(41, deg 1)"
    v, w = factor_prime(41, F2)
    assert (v.label(), w.label()) == ("(41, g=(-17, 1))", "(41, g=(17, 1))")
    E = e_units(unit_image_in_modulus(F2, one2), 3)
    with pytest.raises(ValueError, match=r"^\(41, g=\(17, 1\)\) is not a degree-raising"):
        unit_functional(w, E, 3)


def test_functional_span_invariant_under_generator_choice(F2, F3, one2):
    """Changing the residue generator g to g^k rescales the row by 1/k mod p."""
    cases = [(F2, one2, 5), (F3, unit_ideal(F3), 5)]
    for F, modulus, p in cases:
        E = e_units(unit_image_in_modulus(F, modulus), p)
        for v, phi in scan_t1(E, p, budget=4):
            kappa = residue_field(v)
            q1 = kappa.order - 1
            g = find_generator(kappa)
            picked = 0
            k = 2
            while picked < 3:
                while gcd(k, q1) != 1:
                    k += 1
                alt = g ** k
                row = tuple(
                    pth_character(residue_image(unit_power_product(col, F), v), p, alt)
                    for col in E.exponent_vectors
                )
                kinv = pow(k, -1, p)
                assert row == tuple(kinv * x % p for x in phi.values)
                picked += 1
                k += 1


def test_exponent_coordinates_match_explicit_units_on_the_sweep():
    seen = 0
    for F, modulus, p in _sweep_configurations():
        E = e_units(unit_image_in_modulus(F, modulus), p)
        etas = [unit_power_product(col, F) for col in E.exponent_vectors]
        for eta in etas:
            assert is_totally_positive(eta, F)
            assert modulus.contains(tuple(a - b for a, b in zip(eta, F.one())))
        for v, phi in scan_t1(E, p, budget=3):
            g = find_generator(residue_field(v))
            row = tuple(pth_character(residue_image(eta, v), p, g) for eta in etas)
            assert phi.values == row, (F.label, modulus.hnf, p, v.label())
        seen += 1
    assert seen == 172


def test_spanning_set_goldens():
    cases = {
        (2, 5): ((19, 2),),
        (3, 5): ((11, 1),),
        (5, 5): ((11, 1),),
        (5, 3): ((2, 2),),
    }
    rows = {
        (2, 5): ((1,),),
        (3, 5): ((2,),),
        (5, 5): ((2,),),
        (5, 3): ((1,),),
    }
    for (d, p), primes in cases.items():
        scan = spanning_set(real_quadratic_field(d), p)
        assert not scan.shortfall
        assert scan.target == 1
        assert tuple((v.ell, v.f) for v in scan.primes) == primes
        assert scan.rows == rows[(d, p)]


def test_spanning_set_rank_two_at_even_prime(F2):
    # p = 2 divides the torsion order, so -1 joins the generator list
    scan = spanning_set(F2, 2)
    assert scan.target == 2
    assert not scan.shortfall
    assert tuple((v.ell, v.f) for v in scan.primes) == ((3, 2), (7, 1))
    assert scan.rows == ((0, 1), (1, 0))
    # the 2x2 matrix over F_2 is invertible: rows are independent
    a, b = scan.rows
    det = (a[0] * b[1] - a[1] * b[0]) % 2
    assert det == 1


def test_psi_budget_shortfall_raises(F2, one2, stages):
    from torushecke.hecke import psi_report

    with pytest.raises(BudgetShortfall):
        psi_report(*stages(F2, one2, 5, budget=0))
