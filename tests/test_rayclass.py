"""Ray class group law, codes, and representative sweeps."""

from itertools import islice, takewhile
from itertools import product as iter_product

import pytest

from torushecke.abgroup import KernelLattice, closure_from_stream, quotient_structure
from class_oracles import degree_one_primes_over, principal_part, wide_class_of, wide_class_reps
from torushecke.classnumber import WideClassGroup, real_quadratic_field
from torushecke.cli import moduli_of_norm, moduli_upto
from torushecke.errors import ValidationError
from torushecke.field import load_descriptor
from torushecke.galois import primes_stream
from torushecke.ideals import ideal_product, rational_ideal, unit_ideal
from torushecke.intlinalg import IntMatrix, hnf_columns, smith_normal_form, snf_diagonal
from torushecke.primes import _min_poly_disc, factor_prime, prime_to_ideal
from torushecke.rayclass import (
    _sequence_structure,
    narrow_class_number,
    ray_class_group,
    sequence_relations,
)
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


def test_power_matches_repeated_multiplication_on_the_norm_1152_group(F2):
    (modulus,) = moduli_of_norm(F2, 1152)
    G = ray_class_group(unit_image_in_modulus(F2, modulus))
    n = G.order
    assert n == 128
    for i in range(n):
        # i^e for e >= 0 and (i^-1)^e for e > 0, one multiply at a time
        up, down = [G.identity], [G.identity]
        i_inv = G.inverse(i)
        for _ in range(2 * n):
            up.append(G.multiply(up[-1], i))
            down.append(G.multiply(down[-1], i_inv))
        for e in range(-n, 2 * n):
            assert G.power(i, e) == (up[e] if e >= 0 else down[-e]), (i, e)


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


def representatives(G):
    """One integral ideal per class of G, coprime to the modulus.

    Swept from the unramified primes among the first 200, then filled in
    by products; distinct codes certify pairwise inequivalence.
    """
    F = G.field
    reps = {0: unit_ideal(F)}
    disc = _min_poly_disc(F.min_poly)
    nm = G.modulus.norm
    for ell in islice(primes_stream(), 200):
        if len(reps) == G.order:
            break
        if disc % ell and nm % ell:
            for v in factor_prime(ell, F):
                i = G.class_of_prime(v)
                if i not in reps:
                    reps[i] = prime_to_ideal(v, F)
    # product fill: the classes the found ideals generate
    found = list(reps.items())
    queue = list(found)
    for i, a in queue:
        for j, b in found:
            t = G.multiply(i, j)
            if t not in reps:
                reps[t] = ideal_product(a, b, F)
                queue.append((t, reps[t]))
    if len(reps) < G.order:
        raise ArithmeticError("representative sweep did not reach every class")
    return tuple(reps[i] for i in range(G.order))


def test_representatives_are_distinct_and_coprime(F2, F3, seven2):
    for F, modulus in ((F3, unit_ideal(F3)), (F2, seven2)):
        G = ray_class_group(unit_image_in_modulus(F, modulus))
        reps = representatives(G)
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


def cayley_oracle(ui):
    """The group built by enumerating every code (k, q): the reference oracle.

    Returns the Cayley table, the inverses found by search, the order of a
    polycyclic closure over all codes and that closure's invariant factors.
    The factor set is recomputed here from ideal arithmetic.
    """
    csg = ui.csg
    F = csg.field
    quotient = quotient_structure(csg.full_relation_columns, ui.map_columns, csg.width)
    wide_reps = wide_class_reps(F, coprime_to=csg.modulus)
    h = len(wide_reps)
    q_box = list(iter_product(*[range(f) for f in quotient.factors]))
    codes = [(k, q) for k in range(h) for q in q_box]
    index = {c: i for i, c in enumerate(codes)}
    law = {}
    for k1 in range(h):
        for k2 in range(h):
            prod = ideal_product(wide_reps[k1], wide_reps[k2], F)
            k3 = wide_class_of(prod, wide_reps, F)
            law[k1, k2] = (k3, principal_part(prod, k3, wide_reps, csg, quotient, F))

    def code_mul(c1, c2):
        (k1, q1), (k2, q2) = c1, c2
        k3, s = law[k1, k2]
        return k3, tuple((x + y + z) % f for x, y, z, f in zip(q1, q2, s, quotient.factors))

    table = [[index[code_mul(a, b)] for b in codes] for a in codes]
    inverse = [row.index(0) for row in table]
    closure = closure_from_stream(codes, code_mul, codes[0])
    snf = quotient_structure(closure.relation_columns, [], closure.ngens)
    return table, inverse, closure.order, snf.factors


def two_reduction_oracle(ui):
    """The unit kernel and Q of a unit image from two Smith forms: the
    integer kernel of [map | relations], read off V and projected onto the
    map coordinates, and Q from its own reduction of [relations | map]."""
    csg = ui.csg
    s, k = len(ui.map_columns), csg.width
    cols = list(ui.map_columns) + list(csg.full_relation_columns)
    _, d, v = smith_normal_form(IntMatrix.from_rows([[c[i] for c in cols] for i in range(k)]))
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i] != 0)
    kernel = [tuple(v[i, j] for i in range(s)) for j in range(rank, len(cols))]
    hnf = tuple(tuple(r) for r in hnf_columns(kernel, s))
    index = 1
    for i in range(s):
        index *= hnf[i][i]
    inv = tuple(x for x in snf_diagonal(IntMatrix.from_rows(hnf)) if x > 1)
    quotient = quotient_structure(csg.full_relation_columns, ui.map_columns, k)
    return KernelLattice(hnf=hnf, index=index, image_invariant_factors=inv), quotient


def _oracle_moduli(F2, cubic_descriptors):
    """(field, modulus) over the criterion-4 sweep, the two cubics at norm
    <= 13 and Q(sqrt2) at norms 1152 and 1334025."""
    fields = [real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13)]
    sweep = [(F, m) for F in fields for m, _ in moduli_upto(F, 10)]
    # the 172 configurations of the criterion-4 sweep, at p = 3, 5, 7
    assert sum(1 for _, m in sweep for p in (3, 5, 7) if m.norm % p) == 172
    cubics = [load_descriptor(c) for c in cubic_descriptors]
    pairs = sweep + [(F, m) for F in cubics for m, _ in moduli_upto(F, 13)]
    large = [(F2, m) for n in (1152, 1334025) for m in moduli_of_norm(F2, n)]
    # P2^7 (3); and (3)(5)(11) times P7^2, P7 P7' or P7'^2
    assert len(large) == 4
    return pairs + large


def test_one_reduction_matches_the_two_reduction_oracle(F2, cubic_descriptors):
    # the oracle's image invariants are snf_diagonal of the kernel HNF, which
    # kernel_of_map reads off a 2 x 2 HNF without a Smith form
    for F, m in _oracle_moduli(F2, cubic_descriptors):
        ui = unit_image_in_modulus(F, m)
        kernel, quotient = two_reduction_oracle(ui)
        assert ui.kernel == kernel, (F.label, m.hnf)
        assert ui.quotient == quotient, (F.label, m.hnf)


def test_g_is_q_at_class_number_one_against_the_reduction_oracle(F2, cubic_descriptors):
    """G's Smith form against quotient_structure of the sequence relations,
    the reduction ray_class_group skips at h = 1."""
    trivial = 0
    for F, m in _oracle_moduli(F2, cubic_descriptors):
        G = ray_class_group(unit_image_in_modulus(F, m))
        h = len(G.wide_reps)
        relations = sequence_relations(G.unit_quotient, G.wide_mult, G.shift)
        n = len(G.unit_quotient.factors) + h - 1
        assert G.snf == quotient_structure(relations, [], n), (F.label, m.hnf)
        trivial += h == 1
    # 88 moduli: all but the 13 of Q(sqrt10) have h = 1
    assert trivial == 88 - 13


def test_a_trivial_class_with_a_factor_set_is_refused(F2, seven2, monkeypatch):
    # at h = 1 G's Smith form is Q on the identity transform, whatever the
    # factor set; ray_class_group refuses a nonzero shift[0][0]
    quotient = quotient_structure([(2,)], [], 1)
    for entry in (0, 1):
        relations = sequence_relations(quotient, ((0,),), (((entry,),),))
        assert _sequence_structure(quotient, relations) == quotient
    # 3 is no generator of (1), and its image in Q = Z/2 x Z/6 is not zero
    monkeypatch.setattr(WideClassGroup, "quotient_generator", lambda self, a, b, rep: (3, 0))
    with pytest.raises(ArithmeticError, match="identity code"):
        ray_class_group(unit_image_in_modulus(F2, seven2))


def test_exact_sequence_law_matches_the_cayley_oracle():
    moduli = [(d, 12) for d in (2, 3, 5, 6, 7, 10, 11, 13, 15)] + [(229, 5)]
    seen = 0
    cocycles = set()
    for d, bound in moduli:
        F = real_quadratic_field(d)
        for modulus, _ in moduli_upto(F, bound):
            ui = unit_image_in_modulus(F, modulus)
            G = ray_class_group(ui)
            table, inverse, order, factors = cayley_oracle(ui)
            assert G.order == len(table) == order, (d, modulus.hnf)
            assert G.invariant_factors() == factors, (d, modulus.hnf)
            assert [[G.multiply(i, j) for j in range(order)] for i in range(order)] == table
            assert [G.inverse(i) for i in range(order)] == inverse
            # the exact sequence's SNF coordinates are a faithful homomorphism
            coords = [G.snf_coords(i) for i in range(order)]
            assert len(set(coords)) == order
            for i in range(order):
                for j in range(order):
                    want = tuple((x + y) % f for x, y, f in zip(coords[i], coords[j], factors))
                    assert coords[table[i][j]] == want
            if any(any(s) for row in G.shift for s in row):
                cocycles.add(d)
            seen += 1
    assert seen == 105
    assert narrow_class_number(real_quadratic_field(15)) == 4
    # Q(sqrt229) has wide class number 3 and a factor set that is not zero
    assert len(wide_class_reps(real_quadratic_field(229))) == 3
    assert 229 in cocycles


def test_the_field_stage_lists_the_degree_one_primes_of_the_oracle():
    """The degree-one primes read off the field's prime table, by ascending
    ell and root, are the oracle's (ell, theta - t) over the roots t."""
    for d in (79, 223, 229, 399, 1111):
        F = real_quadratic_field(d)
        wide = WideClassGroup(F)
        listed = [
            (ell, v) for ell, v, _ in takewhile(lambda e: e[0] < 400, wide.degree_one_primes())
        ]
        ells = takewhile(lambda ell: ell < 400, primes_stream())
        want = [(ell, v) for ell in ells for v in degree_one_primes_over(F, ell)]
        assert listed == want, d


def test_the_field_stage_matches_the_pairwise_oracles():
    """One WideClassGroup per field gives each modulus the representatives,
    wide_mult and factor set that the pairwise oracles build for it alone,
    and the class index of every split prime below 100."""
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 79, 223, 229, 399, 1111):
        F = real_quadratic_field(d)
        wide = WideClassGroup(F)
        for modulus, _ in moduli_upto(F, 12):
            ui = unit_image_in_modulus(F, modulus)
            G = ray_class_group(ui, wide)
            reps = wide_class_reps(F, coprime_to=modulus)
            assert G.wide_reps == reps, (d, modulus.hnf)
            prods = [[ideal_product(a, b, F) for b in reps] for a in reps]
            wide_mult = tuple(tuple(wide_class_of(c, reps, F) for c in row) for row in prods)
            assert G.wide_mult == wide_mult, (d, modulus.hnf)
            shift = tuple(
                tuple(
                    principal_part(c, k, reps, ui.csg, G.unit_quotient, F)
                    for c, k in zip(row, ks)
                )
                for row, ks in zip(prods, wide_mult)
            )
            assert G.shift == shift, (d, modulus.hnf)
        G = ray_class_group(unit_image_in_modulus(F, unit_ideal(F)), wide)
        disc = _min_poly_disc(F.min_poly)
        for ell in takewhile(lambda ell: ell < 100, primes_stream()):
            if disc % ell:
                for v in factor_prime(ell, F):
                    if v.f == 1:
                        a = prime_to_ideal(v, F)
                        k = G.class_of(a) // G.unit_quotient.order
                        assert k == wide_class_of(a, G.wide_reps, F), (d, ell)


def test_ray_class_group_refuses_the_class_group_of_another_field(F2):
    # read with Q(sqrt10)'s class group, Q(sqrt2) mod (3) came out of order 4
    ui = unit_image_in_modulus(F2, rational_ideal(3, F2))
    assert ray_class_group(ui, WideClassGroup(F2)).order == 2
    with pytest.raises(ValueError, match=r"of Q\(sqrt10\) handed to a modulus of Q\(sqrt2\)"):
        ray_class_group(ui, WideClassGroup(real_quadratic_field(10)))
