"""Acceptance gate: nine numbered end-to-end criteria, one printed line each.

Runs first in the suite (alphabetical order), so every cache is cold and the
timing limits are honest.  Each criterion prints exactly one PASS or FAIL
line; failures re-raise so pytest reports the detail.
"""

import ast
import random
import time
from contextlib import contextmanager
from math import gcd
from pathlib import Path

import mpmath

import torushecke
from torushecke.abgroup import ExponentGroup, closure_from_stream
from torushecke.classnumber import real_quadratic_field
from torushecke.cli import SweepConfig, run_verify
from torushecke.eigen import eigensystem_report
from torushecke.exterior import MultiVector, wedge
from torushecke.field import element_mul, element_norm
from torushecke.forms import hplus_form_cycles
from torushecke.galois import find_generator, is_prime, pth_character
from torushecke.hecke import (
    CohomologyClass,
    HeckeElement,
    compute_tp,
    degree_two_pullback,
    hecke_apply,
    hecke_multiply,
    psi_report,
    scan_t1,
    spanning_set,
    t1_primes,
)
from torushecke.ideals import (
    element_is_coprime_to,
    ideal_product,
    rational_ideal,
    residue_transversal,
    unit_ideal,
)
from torushecke.primes import factor_prime, prime_to_ideal, residue_field, residue_image
from torushecke.rayclass import narrow_class_number, ray_class_group
from torushecke.sturm import isolate_real_roots, sign_at_root
from torushecke.units import compute_rp, e_units, unit_image_in_modulus, unit_power_product

SWEEP_D = (2, 3, 5, 6, 7, 10, 11, 13)


@contextmanager
def criterion(num, label, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"criterion {num}: FAIL  {label} ({elapsed:.2f}s over the {limit}s limit)")
        raise AssertionError(f"criterion {num} took {elapsed:.2f}s, limit {limit}s")
    print(f"criterion {num}: PASS  {label} ({elapsed:.2f}s)")


def test_criterion_1_sqrt2_golden_suite():
    with criterion(1, "Q(sqrt2) golden suite", limit=1.0):
        F = real_quadratic_field(2)
        assert F.fundamental_units == ((1, 1),)
        assert element_norm((1, 1), F) == -1
        one = unit_ideal(F)
        assert narrow_class_number(F) == 1
        ui = unit_image_in_modulus(F, one)
        E = e_units(ui, 5)
        assert E.index == 4
        rep = psi_report(ray_class_group(ui), E, compute_tp(E, 5))
        assert (rep.delta_p, rep.r_p, rep.t_p) == (0, 1, 1)
        phi = rep.scan.certificate[0]
        assert phi.prime.ell == 31
        assert phi.values == (4,)
        assert phi.generator_encoding == 3
        assert (rep.dim_domain, rep.dim_image, rep.dim_H1) == (1, 1, 1)
        assert rep.dim_H0 == 1
        assert rep.is_isomorphism


def test_criterion_2_sqrt3_suite():
    with criterion(2, "Q(sqrt3) suite", limit=1.0):
        F = real_quadratic_field(3)
        one = unit_ideal(F)
        ui = unit_image_in_modulus(F, one)
        G = ray_class_group(ui)
        assert G.order == 2
        v = factor_prime(11, F)[0]
        c = G.class_of_prime(v)
        assert c != G.identity
        # the inverse-shift convention, read off literally component by
        # component: shift(c) moves the indicator at a to inverse(c) * a
        op = HeckeElement.shift(c, 5, 1)
        for a in range(2):
            image = hecke_apply(op, CohomologyClass.indicator(5, 1, a, 2), G)
            expect = G.multiply(G.inverse(c), a)
            for b, comp in enumerate(image.components):
                assert comp.is_zero() == (b != expect)
        # and since c is the nontrivial involution, that is a swap
        one_0 = CohomologyClass.indicator(5, 1, 0, 2)
        one_1 = CohomologyClass.indicator(5, 1, 1, 2)
        assert hecke_apply(op, one_0, G) == one_1
        assert hecke_apply(op, one_1, G) == one_0
        eig = eigensystem_report(G, compute_tp(e_units(ui, 5), 5))
        assert eig.count == 2
        assert eig.matched_both_degrees


def test_criterion_3_sqrt2_mod_seven():
    with criterion(3, "Q(sqrt2) modulus norm 49 suite", limit=5.0):
        F = real_quadratic_field(2)
        ui = unit_image_in_modulus(F, rational_ideal(7, F))
        G = ray_class_group(ui)
        E5 = e_units(ui, 5)
        rep5 = psi_report(G, E5, compute_tp(E5, 5))
        assert rep5.h_plus == 12
        assert rep5.index == 12
        assert rep5.t_p == 1
        assert (rep5.dim_domain, rep5.dim_image, rep5.dim_H1) == (12, 12, 12)
        assert rep5.is_isomorphism
        E3 = e_units(ui, 3)
        rep3 = psi_report(G, E3, compute_tp(E3, 3))
        assert (rep3.delta_p, rep3.t_p) == (1, 0)
        assert (rep3.dim_domain, rep3.dim_image, rep3.dim_H1) == (0, 0, 12)
        assert rep3.hypothesis is False
        assert rep3.t_p == rep3.r_p - rep3.delta_p == 0


def test_criterion_4_theorem_sweep():
    with criterion(4, "rank identity sweep, 8 fields x norms <= 50 x 3 primes", limit=120.0):
        fields = tuple(real_quadratic_field(d) for d in SWEEP_D)
        code, agg = run_verify(
            SweepConfig(fields=fields, modulus_norm_bound=50, primes=(3, 5, 7), budget=50)
        )
        # a budget shortfall would surface as exit code 2: also a failure
        assert code == 0
        assert agg["pass"] is True
        assert agg["failures"] == []
        assert agg["configurations"] == 794
        for row in agg["results"]:
            assert "error" not in row
            assert row["t_p"] == row["r_p"] - row["delta_p"]


# ---------------------------------------------------------- criterion 5 kit


def _merge_cyclic(orders):
    factors = []
    for n in orders:
        if n == 1:
            continue
        merged = []
        for m in factors:
            g = gcd(n, m)
            merged.append(n * m // g)
            n = g
        if n > 1:
            merged.append(n)
        factors = sorted(merged)
    return tuple(sorted(d for d in factors if d > 1))


def _brute_residue_units(F, modulus):
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
    return tuple(sorted(group.invariant_factors()))


def _split_squarefree_moduli(F, bound):
    disc = F.min_poly[1] ** 2 - 4 * F.min_poly[0]
    split = []
    for ell in range(2, bound + 1):
        if is_prime(ell) and disc % ell != 0:
            vs = factor_prime(ell, F)
            if len(vs) == 2:
                split.append((ell, [prime_to_ideal(v, F) for v in vs]))
    out = [(a, (ell,)) for ell, ideals in split for a in ideals]
    for i in range(len(split)):
        for j in range(i + 1, len(split)):
            l1, as1 = split[i]
            l2, as2 = split[j]
            if l1 * l2 > bound:
                continue
            for a in as1:
                for b in as2:
                    out.append((ideal_product(a, b, F), (l1, l2)))
    return out


def test_criterion_5_oracle_equivalences():
    with criterion(5, "form-cycle h+ and residue-unit CRT oracles"):
        for D, d in ((8, 2), (12, 3), (40, 10), (60, 15)):
            F = real_quadratic_field(d)
            assert hplus_form_cycles(D) == narrow_class_number(F), D
        checked = 0
        for d in (2, 3):
            F = real_quadratic_field(d)
            for modulus, ells in _split_squarefree_moduli(F, 1000):
                got = _brute_residue_units(F, modulus)
                assert got == _merge_cyclic([ell - 1 for ell in ells]), (d, ells)
                checked += 1
        assert checked >= 40


def test_criterion_6_spanning_sets():
    with criterion(6, "character spanning sets across the sweep"):
        for d in SWEEP_D:
            F = real_quadratic_field(d)
            for p in (3, 5, 7):
                assert compute_rp(F, p) == 1
                scan = spanning_set(F, p, budget=25)
                assert not scan.shortfall, (d, p)
                assert len(scan.primes) == 1
                assert len(scan.rows) == 1 and len(scan.rows[0]) == 1
                assert scan.rows[0][0] % p != 0
        # p = 2 wakes the torsion generator: rank-2 target over Q(sqrt2)
        scan = spanning_set(real_quadratic_field(2), 2, budget=25)
        assert scan.target == 2
        assert not scan.shortfall
        assert len(scan.primes) == 2
        (a, b), (c, d) = scan.rows
        assert (a * d - b * c) % 2 == 1


# ---------------------------------------------------------- criterion 7 kit


def _random_operator(rng, p, rank, degree, size):
    entries = []
    for z in range(size):
        if rng.randrange(2):
            if degree == 0:
                om = MultiVector.scalar(p, rank, rng.randrange(p))
            else:
                om = MultiVector.from_vector(
                    p, rank, tuple(rng.randrange(p) for _ in range(rank))
                )
            entries.append((z, om))
    if not entries:
        entries.append((0, MultiVector.scalar(p, rank, 1) if degree == 0
                        else MultiVector.from_vector(p, rank, (1,) * rank)))
    return HeckeElement(p, rank, degree, tuple(entries))


def _scaled(h, c):
    return HeckeElement(h.p, h.rank, h.degree, tuple((z, om.scale(c)) for z, om in h.terms))


def test_criterion_7_property_suites():
    with criterion(7, "pinned-seed property suites"):
        # wedge anticommutativity and alternation, 10^3 cases
        rng = random.Random(7001)
        for _ in range(1000):
            p = rng.choice((2, 3, 5, 7))
            rank = rng.randrange(2, 6)
            u = MultiVector.from_vector(p, rank, tuple(rng.randrange(p) for _ in range(rank)))
            v = MultiVector.from_vector(p, rank, tuple(rng.randrange(p) for _ in range(rank)))
            assert wedge(u, v).add(wedge(v, u)).is_zero()
            assert wedge(u, u).is_zero()

        # graded commutativity of operator products, 10^2 cases
        F3 = real_quadratic_field(3)
        G2 = ray_class_group(unit_image_in_modulus(F3, unit_ideal(F3)))
        rng = random.Random(7002)
        for _ in range(100):
            p = rng.choice((2, 3, 5, 7))
            d1, d2 = rng.randrange(2), rng.randrange(2)
            h1 = _random_operator(rng, p, 3, d1, G2.order)
            h2 = _random_operator(rng, p, 3, d2, G2.order)
            sign = (-1) ** (d1 * d2) % p
            assert hecke_multiply(h1, h2, G2) == _scaled(hecke_multiply(h2, h1, G2), sign)

        # the shift orbit of one indicator covers every class exactly once
        F2 = real_quadratic_field(2)
        G12 = ray_class_group(unit_image_in_modulus(F2, rational_ideal(7, F2)))
        start = CohomologyClass.indicator(3, 1, 1, G12.order)
        orbit = {
            hecke_apply(HeckeElement.shift(z, 3, 1), start, G12)
            for z in range(G12.order)
        }
        assert len(orbit) == G12.order == 12

        # ten pinned random shifts act as permutations of the indicators
        rng = random.Random(7003)
        indicators = [
            CohomologyClass.indicator(5, 1, a, G12.order) for a in range(G12.order)
        ]
        for _ in range(10):
            op = HeckeElement.shift(rng.randrange(G12.order), 5, 1)
            images = {hecke_apply(op, c, G12) for c in indicators}
            assert images == set(indicators)

        # functional rows only rotate by a unit when the generator changes
        for F in (F2, F3):
            eunits = e_units(unit_image_in_modulus(F, unit_ideal(F)), 5)
            for v, phi in scan_t1(eunits, 5, budget=2):
                kappa = residue_field(v)
                q1 = kappa.order - 1
                g = find_generator(kappa)
                k, picked = 2, 0
                while picked < 3:
                    while gcd(k, q1) != 1:
                        k += 1
                    etas = (unit_power_product(c, F) for c in eunits.exponent_vectors)
                    row = tuple(
                        pth_character(residue_image(eta, v), 5, g ** k) for eta in etas
                    )
                    kinv = pow(k, -1, 5)
                    assert row == tuple(kinv * x % 5 for x in phi.values)
                    picked += 1
                    k += 1


def test_criterion_8_degree_two_vanishing():
    with criterion(8, "degree-2 block vanishes and the carry oracle agrees"):
        rng = random.Random(8001)
        pool = []
        for d in (2, 3):
            F = real_quadratic_field(d)
            one = unit_ideal(F)
            G = ray_class_group(unit_image_in_modulus(F, one))
            stream = t1_primes(F, one, 5)
            pool.extend((G, next(stream)) for _ in range(15))
        for G, v in rng.sample(pool, 20):
            block = degree_two_pullback(v, G, 5)
            assert block.degree == 2
            assert block.is_zero()

        # independent bar-resolution check: the carry is a 2-cocycle on Z/n
        # and pulls back to the coboundary of the floor cochain
        for n, p in ((10, 5), (22, 11)):
            assert n % p == 0

            def carry(a, b, n=n):
                return (a % n + b % n) // n

            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert (
                            carry(b, c)
                            - carry((a + b) % n, c)
                            + carry(a, (b + c) % n)
                            - carry(a, b)
                            == 0
                        )
            for a in range(-2 * n, 2 * n):
                for b in range(-2 * n, 2 * n):
                    assert carry(a, b) == (a + b) // n - a // n - b // n


def test_criterion_9_exact_arithmetic():
    with criterion(9, "no floating point in the library, signs match 50-digit"):
        src = Path(torushecke.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    assert not isinstance(node.value, (float, complex)), path.name
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    assert node.func.id not in ("float", "complex"), path.name
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    assert path.name == "sturm.py", path.name
                if isinstance(node, ast.ImportFrom) and node.module == "math":
                    for alias in node.names:
                        assert alias.name in ("isqrt", "gcd", "lcm", "comb"), path.name

        mpmath.mp.dps = 50
        cases = [
            ((-2, 0, 1), mpmath.sqrt(2)),
            ((-3, 0, 1), mpmath.sqrt(3)),
            ((-1, -1, 1), (1 + mpmath.sqrt(5)) / 2),
        ]
        rng = random.Random(9001)
        total = 0
        for poly, theta in cases:
            iv = isolate_real_roots(poly)[-1]
            for _ in range(334):
                a = rng.randint(-10**6, 10**6)
                b = rng.randint(-10**6, 10**6)
                if a == 0 and b == 0:
                    continue
                s = sign_at_root((a, b), poly, iv)
                approx = a + b * theta
                assert s == (1 if approx > 0 else -1), (poly, a, b)
                total += 1
        assert total >= 1000
