"""Field descriptors: validation, exact arithmetic, signs, norms."""

import json
import random

import pytest

from torushecke.classnumber import real_quadratic_field
from torushecke.errors import ValidationError
from torushecke.field import (
    FieldDescriptor,
    _real_root_intervals,
    element_mul,
    element_norm,
    element_pow,
    element_unit_inverse,
    is_totally_positive,
    load_descriptor,
    multiplication_matrix,
    poly_discriminant,
    real_signs,
    validate_descriptor,
)
from torushecke.sturm import tarski_sign


def element_trace(x, F):
    m = multiplication_matrix(x, F)
    return sum(m[i, i] for i in range(F.degree))


GOOD = {
    "label": "Q(sqrt2)",
    "min_poly": [-2, 0, 1],
    "signature": [2, 0],
    "torsion": {"order": 2, "generator": [-1, 0]},
    "fundamental_units": [[1, 1]],
    "class_number": 1,
}

SQRT10 = {
    **GOOD,
    "label": "Q(sqrt10)",
    "min_poly": [-10, 0, 1],
    "fundamental_units": [[3, 1]],
    "class_number": 2,
}


def test_load_descriptor_roundtrip(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(GOOD))
    F = load_descriptor(str(path))
    assert F.label == "Q(sqrt2)"
    assert F.degree == 2 and F.unit_rank == 1
    assert F.provenance == "ingested"
    cert = validate_descriptor(F)
    assert cert["real_roots"] == 2
    # the certificate prime leaves min_poly irreducible
    assert cert["irreducibility_certificate_prime"] == 3


def _mutate(**kw):
    data = json.loads(json.dumps(GOOD))
    for k, v in kw.items():
        data[k] = v
    return data


@pytest.mark.parametrize(
    "bad",
    [
        _mutate(min_poly=[-2, 0, 2]),  # not monic
        _mutate(min_poly=[-4, 0, 1]),  # reducible: x^2 - 4
        _mutate(min_poly=[-2, 0, 1, 0]),  # trailing zero coefficient
        _mutate(signature=[0, 1]),  # wrong signature for a real field
        _mutate(signature=[1, 0]),  # rational signature out of scope
        _mutate(torsion={"order": 4, "generator": [-1, 0]}),  # wrong torsion
        _mutate(torsion={"order": 2, "generator": [1, 0]}),  # order-1 generator
        _mutate(fundamental_units=[]),  # rank mismatch
        _mutate(fundamental_units=[[2, 0]]),  # norm 4 is not a unit
        _mutate(class_number=0),
        {"label": "x"},  # missing keys
        _mutate(fundamental_units=[[3, 2]]),  # eps^2 is a unit but not fundamental
        _mutate(class_number=2),  # Q(sqrt2) has class number 1
        {**SQRT10, "class_number": 1},  # the true class number is 2
        # class number 2 off a real quadratic field: Q(zeta7)+ of conftest
        {
            "label": "Q(zeta7)+",
            "min_poly": [-1, -2, 1, 1],
            "signature": [3, 0],
            "torsion": {"order": 2, "generator": [-1, 0, 0]},
            "fundamental_units": [[0, 1, 0], [1, 1, 0]],
            "class_number": 2,
        },
    ],
)
def test_validate_rejects(bad):
    # the unit and class number of D = 8 and D = 40 are read off the
    # rho-cycles that the native Q(sqrt2) and Q(sqrt10) already walked
    real_quadratic_field(2)
    real_quadratic_field(10)
    with pytest.raises(ValidationError):
        load_descriptor(bad)


def test_validate_accepts_the_fundamental_unit_up_to_sign_and_inverse():
    # 1 + sqrt2 and sqrt2 - 1 = (1 + sqrt2)^-1, with both signs
    for unit in ([1, 1], [-1, -1], [-1, 1], [1, -1]):
        F = load_descriptor(_mutate(fundamental_units=[unit]))
        assert F.fundamental_units == (tuple(unit),)
    assert load_descriptor(SQRT10).class_number == 2


def test_signs_golden(F2):
    # 1 + sqrt2 is positive at the first embedding, negative at the second
    assert real_signs((1, 1), F2) == (1, -1)
    assert real_signs((1, 0), F2) == (1, 1)
    assert real_signs((-1, 0), F2) == (-1, -1)
    assert is_totally_positive((3, 2), F2)  # 3 + 2*sqrt2 = (1+sqrt2)^2
    assert not is_totally_positive((1, 1), F2)
    with pytest.raises(ValueError):
        real_signs((0, 0), F2)


def test_quadratic_signs_match_the_sturm_tarski_oracle():
    # x^2 - d (d = 2, 3 mod 4) and x^2 - x - (d-1)/4 (d = 1 mod 4); the
    # oracle walks the isolating intervals, larger root first
    rng = random.Random(41)
    for d in (2, 3, 5, 13, 229):
        F = real_quadratic_field(d)
        eps = F.fundamental_units[0]
        k = 1
        while max(abs(c) for c in element_pow(eps, k, F)).bit_length() < 500:
            k += 1
        cases = [(1, 0), (-4, 0), (0, 1), (0, -9), (1, 1), (-1, 1), (1, -1)]
        # eps^k and eps^(k+1) have a conjugate of size 2^-500: u and v*sqrt D
        # nearly cancel, so only an exact comparison gets that sign right
        for e in (k, k + 1):
            x = element_pow(eps, e, F)
            cases += [x, tuple(-c for c in x), (x[0] - 1, x[1]), (x[0] + 1, x[1])]
        for _ in range(60):
            bits = rng.choice((3, 64, 500))
            cases.append((rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)))
        for x in cases:
            if x == (0, 0):
                continue
            want = tuple(tarski_sign(x, F.min_poly, iv) for iv in _real_root_intervals(F.min_poly))
            assert real_signs(x, F) == want, (d, x)


def test_norm_trace_goldens(F2, F5):
    assert element_norm((1, 1), F2) == -1  # N(1 + sqrt2)
    assert element_norm((3, 2), F2) == 1
    assert element_norm((0, 1), F2) == -2  # N(sqrt2)
    assert element_trace((3, 2), F2) == 6
    # golden ratio: theta^2 = theta + 1, norm -1, trace 1
    assert element_norm((0, 1), F5) == -1
    assert element_trace((0, 1), F5) == 1


def test_norm_multiplicative(F2, F5):
    rng = random.Random(55)
    for F in (F2, F5):
        for _ in range(80):
            x = (rng.randint(-30, 30), rng.randint(-30, 30))
            y = (rng.randint(-30, 30), rng.randint(-30, 30))
            assert element_norm(element_mul(x, y, F), F) == element_norm(
                x, F
            ) * element_norm(y, F)


def test_unit_inverse(F2, F3):
    for F, u in ((F2, (1, 1)), (F3, (2, 1))):
        inv = element_unit_inverse(u, F)
        assert element_mul(u, inv, F) == F.one()
    with pytest.raises(ValueError):
        element_unit_inverse((0, 1), F2)  # norm -2, not a unit


def test_power_matches_repeated_multiplication(F3):
    x = (1, 2)
    acc = F3.one()
    for e in range(7):
        assert element_pow(x, e, F3) == acc
        acc = element_mul(acc, x, F3)


def test_poly_discriminant_goldens():
    assert poly_discriminant((-2, 0, 1)) == 8
    assert poly_discriminant((-3, 0, 1)) == 12
    assert poly_discriminant((-1, -1, 1)) == 5
    assert poly_discriminant((1, 1, 1)) == -3
    # cubic x^3 - x - 1: discriminant -23
    assert poly_discriminant((-1, -1, 0, 1)) == -23


def test_native_constructor_matches_descriptor_path(F2):
    G = real_quadratic_field(2)
    assert G.min_poly == F2.min_poly == (-2, 0, 1)
    assert G.fundamental_units == ((1, 1),)
    assert G.class_number == 1
    assert G.torsion_order == 2
    with pytest.raises(ValidationError):
        real_quadratic_field(4)  # not squarefree
    with pytest.raises(ValidationError):
        real_quadratic_field(1)
