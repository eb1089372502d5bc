"""Wedge product laws, property-based with pinned derandomized settings."""

from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from torushecke.exterior import MultiVector, merge_sign, subsets_colex, wedge

PRIMES = (2, 3, 5, 7)


@st.composite
def vector_pair(draw):
    p = draw(st.sampled_from(PRIMES))
    rank = draw(st.integers(min_value=1, max_value=5))
    u = tuple(draw(st.integers(0, p - 1)) for _ in range(rank))
    w = tuple(draw(st.integers(0, p - 1)) for _ in range(rank))
    return p, rank, u, w


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(vector_pair())
def test_wedge_anticommutes_and_alternates(data):
    p, rank, ucoords, wcoords = data
    u = MultiVector.from_vector(p, rank, ucoords)
    w = MultiVector.from_vector(p, rank, wcoords)
    uw = wedge(u, w)
    wu = wedge(w, u)
    assert uw.add(wu).is_zero()  # u^w = -w^u
    assert wedge(u, u).is_zero()  # alternation
    assert wedge(w, w).is_zero()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(vector_pair(), st.integers(0, 6))
def test_wedge_bilinear(data, c):
    p, rank, ucoords, wcoords = data
    u = MultiVector.from_vector(p, rank, ucoords)
    w = MultiVector.from_vector(p, rank, wcoords)
    x = MultiVector.from_vector(p, rank, tuple((a + 1) % p for a in wcoords))
    left = wedge(u, w.add(x))
    right = wedge(u, w).add(wedge(u, x))
    assert left.coords == right.coords
    assert wedge(u.scale(c), w).coords == wedge(u, w).scale(c).coords


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(2, 5), st.data())
def test_wedge_associative_on_blades(p, rank, data):
    subs1 = data.draw(st.sampled_from(subsets_colex(rank, 1)))
    subs2 = data.draw(st.sampled_from(subsets_colex(rank, 1)))
    subs3 = data.draw(st.sampled_from(subsets_colex(rank, 1)))
    a = MultiVector.basis_blade(p, rank, subs1)
    b = MultiVector.basis_blade(p, rank, subs2)
    c = MultiVector.basis_blade(p, rank, subs3)
    assert wedge(wedge(a, b), c).coords == wedge(a, wedge(b, c)).coords


def test_blade_goldens():
    p, r = 5, 3
    e1 = MultiVector.basis_blade(p, r, (0,))
    e2 = MultiVector.basis_blade(p, r, (1,))
    e12 = MultiVector.basis_blade(p, r, (0, 1))
    assert wedge(e1, e2).coords == e12.coords
    assert wedge(e2, e1).coords == e12.neg().coords
    # (e1 + e2) ^ e2 = e12
    s = e1.add(e2)
    assert wedge(s, e2).coords == e12.coords
    # top degree collapses to the empty coordinate tuple beyond the rank
    top = MultiVector.basis_blade(p, r, (0, 1, 2))
    assert wedge(top, e1).coords == ()


def test_merge_sign_matches_inversion_count():
    assert merge_sign((0,), (1,)) == 1
    assert merge_sign((1,), (0,)) == -1
    assert merge_sign((0, 2), (1,)) == -1  # one inversion: 2 > 1
    assert merge_sign((0, 1), (1,)) == 0  # overlap kills the term
    assert merge_sign((), (0, 1)) == 1


def test_colex_subset_order_is_stable_across_rank():
    # colex: index of a subset does not depend on the ambient rank
    s4 = subsets_colex(4, 2)
    s6 = subsets_colex(6, 2)
    assert s6[: len(s4)] == s4


def test_multivector_refuses_coordinates_of_the_wrong_length():
    # (p, rank, degree, len(coords)); a degree outside [0, rank] has no coordinates
    for p, rank, degree, n in ((5, 3, 1, 2), (5, 3, 2, 4), (3, 2, 0, 0), (7, 2, 3, 1)):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            MultiVector(p, rank, degree, (0,) * n)
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        MultiVector(p=5, rank=3, degree=1, coords=(1,))
    good = MultiVector(5, 3, 1, (1, 2, 3))
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        good._replace(coords=(1, 2))
    assert good._replace(degree=2) == MultiVector(5, 3, 2, (1, 2, 3))


def test_multivector_zero_and_scalar_build_valid_vectors():
    for rank in range(5):
        for degree in range(-1, rank + 2):
            z = MultiVector.zero(5, rank, degree)
            assert z.is_zero() and (z.rank, z.degree) == (rank, degree)
            assert len(z.coords) == (comb(rank, degree) if 0 <= degree <= rank else 0)
        s = MultiVector.scalar(5, rank, 7)
        assert (s.degree, s.coords) == (0, (2,))
