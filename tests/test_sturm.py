"""Root isolation and algebraic signs against a 50-digit mpmath oracle.

The bisection routine that sign_at_root used before the Sturm-Tarski query
is kept here as a second, independent reference.
"""

import random
from fractions import Fraction

import mpmath

import pytest

from torushecke.sturm import (
    _nonroot_split,
    count_real_roots,
    count_roots_between,
    fpoly_eval,
    fpoly_trim,
    isolate_real_roots,
    sign_at_root,
    sturm_chain,
)

mpmath.mp.dps = 50


def refine_interval(coeffs, interval, rounds=1):
    """Halve an isolating interval, keeping the single root inside."""
    p = fpoly_trim(coeffs)
    chain = sturm_chain(p)
    lo, hi = interval
    for _ in range(rounds):
        if fpoly_eval(p, lo) == 0 or count_roots_between(chain, lo, hi) != 1:
            raise ValueError("not an isolating interval")
        mid = _nonroot_split(p, lo, hi)
        if count_roots_between(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _rem(a, b):
    a = list(fpoly_trim(a))
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[shift + i] -= q * x
        a = list(fpoly_trim(a))
    return tuple(a)


def _gcd(a, b):
    a, b = fpoly_trim(a), fpoly_trim(b)
    while b:
        a, b = b, _rem(a, b)
    return a


def _bisection_sign(g, f, interval):
    """Reference oracle: zero through gcd(f, g), else shrink the interval
    until g has no root in it and evaluate g at its right end."""
    f, g = fpoly_trim(f), fpoly_trim(g)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if not g:
        return 0
    if len(g) == 1:
        return 1 if g[0] > 0 else -1
    f_chain = sturm_chain(f)
    h = _gcd(f, g)
    if len(h) > 1 and count_roots_between(sturm_chain(h), lo, hi) > 0:
        return 0
    g_chain = sturm_chain(g)
    while count_roots_between(g_chain, lo, hi) > 0:
        mid = next(
            t
            for t in (lo + (hi - lo) * Fraction(j, len(f) + 2) for j in range(1, len(f) + 2))
            if fpoly_eval(f, t) != 0
        )
        if count_roots_between(f_chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return 1 if fpoly_eval(g, hi) > 0 else -1


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_count_real_roots_known_polynomials():
    assert count_real_roots((-2, 0, 1)) == 2  # x^2 - 2
    assert count_real_roots((2, 0, 1)) == 0  # x^2 + 2
    assert count_real_roots((0, -1, 0, 1)) == 3  # x^3 - x
    assert count_real_roots((-1, -1, 1)) == 2  # x^2 - x - 1
    assert count_real_roots((1, 0, 0, 0, 1)) == 0  # x^4 + 1
    assert count_real_roots((0, 0, 1)) == 1  # x^2: one distinct root


def test_isolation_intervals_are_isolating_and_ordered():
    poly = (0, -1, 0, 1)  # roots -1, 0, 1
    ivs = isolate_real_roots(poly)
    assert len(ivs) == 3
    chain = sturm_chain(poly)
    lo_prev = None
    for lo, hi in ivs:
        assert lo < hi
        if lo_prev is not None:
            assert lo >= lo_prev
        lo_prev = lo
    # refinement keeps one root and shrinks
    lo, hi = refine_interval(poly, ivs[0], rounds=10)
    assert hi - lo < Fraction(1, 100)
    assert lo < -1 < hi or (lo < -1 <= hi)


def test_isolation_matches_mpmath_roots():
    rng = random.Random(424242)
    for _ in range(40):
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        ivs = isolate_real_roots(tuple(coeffs))
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=200)
        real = sorted(float(r.real) for r in roots if abs(r.imag) < mpmath.mpf("1e-30"))
        # distinct real roots
        distinct = []
        for r in real:
            if not distinct or abs(r - distinct[-1]) > 1e-25:
                distinct.append(r)
        assert len(ivs) == len(distinct)
        for (lo, hi), r in zip(ivs, distinct):
            assert float(lo) < r + 1e-20 and r - 1e-20 < float(hi)


def test_sign_at_root_against_50_digit_evaluation():
    """Exact Sturm signs equal 50-digit evaluation on 10^3 random elements."""
    rng = random.Random(1009)
    cases = 0
    for d, theta_expr in ((2, mpmath.sqrt(2)), (3, mpmath.sqrt(3)), (5, (1 + mpmath.sqrt(5)) / 2)):
        if d % 4 == 1:
            poly = (-(d - 1) // 4, -1, 1)
        else:
            poly = (-d, 0, 1)
        # largest root convention: theta_expr is the first embedding
        iv_hi = isolate_real_roots(poly)[-1]
        for _ in range(334):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            if (a, b) == (0, 0):
                b = 1
            s = sign_at_root((a, b), poly, iv_hi)
            val = a + b * theta_expr
            assert abs(val) > mpmath.mpf("1e-40")  # never lands on a root
            assert s == (1 if val > 0 else -1)
            cases += 1
    assert cases == 1002
    # gcd branch: g sharing the root of f reports exact zero
    assert sign_at_root((-2, 0, 1), (-2, 0, 1), isolate_real_roots((-2, 0, 1))[-1]) == 0


def test_sign_constant_and_zero_polynomials():
    iv = isolate_real_roots((-2, 0, 1))[-1]
    assert sign_at_root((7,), (-2, 0, 1), iv) == 1
    assert sign_at_root((-7,), (-2, 0, 1), iv) == -1
    assert sign_at_root((), (-2, 0, 1), iv) == 0
    assert sign_at_root((0, 0), (-2, 0, 1), iv) == 0


def test_sign_at_root_on_random_polynomials_against_both_oracles():
    """Sturm-Tarski signs of g at every real root of f, deg f in 3..5.

    A quarter of the cases share a factor h of f with g, so g vanishes at
    some roots of f and the zero branch is exercised.
    """
    rng = random.Random(271828)
    cases = zeros = 0
    while cases < 1000:
        deg = rng.randint(3, 5)
        if rng.random() < 0.25:
            h = tuple(rng.randint(-6, 6) for _ in range(2)) + (1,)
            f = _mul(h, tuple(rng.randint(-6, 6) for _ in range(deg - 2)) + (rng.choice((1, 2, -3)),))
            g = _mul(h, tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, deg - 2))))
        else:
            f = tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.choice((1, 2, -3)),)
            g = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, deg)))
        if len(sturm_chain(f)[-1]) > 1:
            continue  # repeated roots: mpmath polyroots converges poorly there
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f)], maxsteps=200)
        real = [r.real for r in roots if abs(r.imag) < mpmath.mpf("1e-30")]
        for lo, hi in isolate_real_roots(f):
            (alpha,) = [r for r in real if _mpf(lo) < r <= _mpf(hi)]
            val = mpmath.polyval([mpmath.mpf(c) for c in reversed(g)], alpha)
            want = 0 if abs(val) < mpmath.mpf("1e-30") else (1 if val > 0 else -1)
            s = sign_at_root(g, f, (lo, hi))
            assert s == want == _bisection_sign(g, f, (lo, hi)), (f, g, lo, hi)
            cases += 1
            zeros += s == 0
    assert zeros > 50


def test_sign_at_root_on_a_reducible_polynomial():
    # f = (x - 1)(x^2 - 2)(x - 3)^2 has roots -sqrt2 < 1 < sqrt2 < 3 (3 twice);
    # its factor g = x - 1 vanishes at exactly one of them
    f = _mul(_mul((-1, 1), (-2, 0, 1)), (9, -6, 1))
    g = (-1, 1)
    ivs = isolate_real_roots(f)
    assert len(ivs) == 4
    assert [sign_at_root(g, f, iv) for iv in ivs] == [-1, 0, 1, 1]
    assert [_bisection_sign(g, f, iv) for iv in ivs] == [-1, 0, 1, 1]
    # g = (x - 3)(x + 1) vanishes at the double root only
    assert [sign_at_root((-3, -2, 1), f, iv) for iv in ivs] == [1, -1, -1, 0]


def test_sign_at_root_refuses_intervals_that_do_not_isolate():
    f = (2, -3, 1)  # (x - 1)(x - 2)
    for interval in ((0, 3), (3, 4), (1, 3), (0, 1), (2, 3)):
        # two roots, none, and one root with a root of f at an endpoint
        with pytest.raises(ValueError):
            sign_at_root((0, 1), f, interval)
    assert sign_at_root((-1, 1), f, (Fraction(3, 2), 3)) == 1
