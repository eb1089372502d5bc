"""Shared fixtures: small real quadratic fields and common moduli."""

import pytest

from torushecke.classnumber import real_quadratic_field
from torushecke.field import FieldDescriptor, validate_descriptor
from torushecke.hecke import compute_tp
from torushecke.ideals import rational_ideal, unit_ideal
from torushecke.rayclass import ray_class_group
from torushecke.units import e_units, unit_image_in_modulus


@pytest.fixture(scope="session")
def F2():
    return real_quadratic_field(2)


@pytest.fixture(scope="session")
def F3():
    return real_quadratic_field(3)


@pytest.fixture(scope="session")
def F5():
    return real_quadratic_field(5)


@pytest.fixture(scope="session")
def F10():
    return real_quadratic_field(10)


@pytest.fixture(scope="session")
def Fzeta5():
    """Q(zeta5): no real place, so the torsion unit -zeta5 of order 10 is
    totally positive and sits inside E((1))."""
    F = FieldDescriptor(
        label="Q(zeta5)",
        min_poly=(1, 1, 1, 1, 1),
        signature=(0, 2),
        torsion_order=10,
        torsion_generator=(0, -1, 0, 0),
        fundamental_units=((0, 0, -1, -1),),
        class_number=1,
        provenance="ingested",
    )
    validate_descriptor(F)
    return F


@pytest.fixture(scope="session")
def cubic_descriptors():
    """Descriptor dicts of two cyclic cubics of unit rank 2 and class number
    1, with the units theta, 1 + theta: Q(zeta7)^+ and Shanks' simplest
    cubic x^3 - a x^2 - (a+3) x - 1 at a = 1."""
    common = {
        "signature": [3, 0],
        "torsion": {"order": 2, "generator": [-1, 0, 0]},
        "fundamental_units": [[0, 1, 0], [1, 1, 0]],
        "class_number": 1,
    }
    return (
        {"label": "Q(zeta7)+", "min_poly": [-1, -2, 1, 1], **common},
        {"label": "simplest cubic a=1", "min_poly": [-1, -4, -1, 1], **common},
    )


@pytest.fixture(scope="session")
def one2(F2):
    return unit_ideal(F2)


@pytest.fixture(scope="session")
def seven2(F2):
    return rational_ideal(7, F2)


@pytest.fixture(scope="session")
def stages():
    """(G, E, t_p scan) of a configuration, built once each in pipeline order.

    The triple is the argument list of psi_report; eigensystem_report takes
    G and the scan.
    """

    def build(F, modulus, p, budget=50):
        ui = unit_image_in_modulus(F, modulus)
        E = e_units(ui, p)
        return ray_class_group(ui), E, compute_tp(E, p, budget)

    return build


@pytest.fixture(scope="session")
def brute_ideals():
    """(norm, hnf) of every ideal of a quadratic Z[theta] up to a norm bound:
    the sublattices of Z + Z theta closed under theta, canonical HNF, by hand.

    Basis columns (a, 0) and (b, d); membership of (x, y) is d | y and
    a | x - (y // d) * b.  Closure under the ring needs theta * basis in the
    lattice, nothing else.  Non-invertible ideals of a non-maximal order
    are included.
    """

    def ideals_upto(F, bound):
        c0, c1, _ = F.min_poly

        def contains(a, b, d, x, y):
            return y % d == 0 and (x - (y // d) * b) % a == 0

        found = []
        for a in range(1, bound + 1):
            for d in range(1, bound // a + 1):
                for b in range(a):
                    if not contains(a, b, d, 0, a):
                        continue
                    if not contains(a, b, d, -c0 * d, b - c1 * d):
                        continue
                    found.append((a * d, ((a, b), (0, d))))
        return sorted(found)

    return ideals_upto
