"""Exact real root isolation and algebraic sign evaluation.

Sturm chains over Fraction decide, with no floating point anywhere, how many
distinct real roots a rational polynomial has in an interval.  A real
algebraic number is carried as an isolating interval of its minimal
polynomial; the sign of another polynomial at that number is one
Sturm-Tarski query: the sign-variation drop of a signed remainder sequence
across the interval.
"""

from fractions import Fraction


def fpoly_trim(c):
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fpoly_eval(c, x):
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def fpoly_deriv(c):
    return tuple(i * c[i] for i in range(1, len(c)))


def _fpoly_rem(a, b):
    a = list(a)
    while len(a) >= len(b) and any(x != 0 for x in a):
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[shift + i] -= q * x
        a.pop()
    return fpoly_trim(a)


def _fpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fpoly_trim(out)


def _signed_remainder_sequence(a, b):
    seq = [a]
    while b:
        seq.append(b)
        a, b = b, tuple(-x for x in _fpoly_rem(a, b))
    return tuple(seq)


def sturm_chain(coeffs):
    p = fpoly_trim(coeffs)
    if len(p) <= 1:
        return (p,) if p else ((),)
    return _signed_remainder_sequence(p, fpoly_deriv(p))


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = fpoly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])


def count_roots_between(chain, lo, hi):
    """Distinct real roots in (lo, hi]; endpoints must satisfy lo < hi."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_bound(coeffs):
    p = fpoly_trim(coeffs)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(a) / lead for a in p[:-1])


def count_real_roots(coeffs):
    p = fpoly_trim(coeffs)
    if len(p) <= 1:
        return 0
    chain = sturm_chain(p)
    b = cauchy_bound(p)
    return count_roots_between(chain, -b, b)


def _nonroot_split(p, lo, hi):
    # p has at most deg p roots, so one of deg+1 interior sample points is clean
    n = len(p)
    for j in range(1, n + 2):
        t = lo + (hi - lo) * Fraction(j, n + 2)
        if fpoly_eval(p, t) != 0:
            return t
    raise ArithmeticError("could not find a non-root split point")


def isolate_real_roots(coeffs):
    """Disjoint intervals (lo, hi], ascending, one distinct real root each.

    Endpoints are never roots.  Rational roots get intervals like any other
    root; callers that need the rational value can bisect further.
    """
    p = fpoly_trim(coeffs)
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
    b = cauchy_bound(p)
    out = []
    stack = [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        n = count_roots_between(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = _nonroot_split(p, lo, hi)
        stack.append((mid, hi))
        stack.append((lo, mid))
    out.sort(key=lambda iv: iv[0])
    return out


def check_isolating(f_coeffs, interval):
    """Refuse (lo, hi] unless it holds exactly one root of f and neither
    endpoint is a root, as the Sturm-Tarski query requires."""
    f = fpoly_trim(f_coeffs)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    ends_are_roots = fpoly_eval(f, lo) == 0 or fpoly_eval(f, hi) == 0
    if ends_are_roots or count_roots_between(sturm_chain(f), lo, hi) != 1:
        raise ValueError("not an isolating interval for f")


def tarski_sign(g_coeffs, f_coeffs, interval):
    """Sign of g at the root of f in an interval check_isolating accepted.

    By the Sturm-Tarski theorem the sign-variation drop across (lo, hi] of
    the signed remainder sequence of (f, f'g) is the sum of sign g(x) over
    the roots x of f in (lo, hi]; with one root that is sign g(alpha) in
    {-1, 0, 1}, 0 exactly when g(alpha) = 0.  Reducing f'g mod f leaves its
    values at the roots of f, hence the drop, unchanged.
    """
    f = fpoly_trim(f_coeffs)
    g = fpoly_trim(g_coeffs)
    if not g:
        return 0
    if len(g) == 1:
        return 1 if g[0] > 0 else -1
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    tarski = _signed_remainder_sequence(f, _fpoly_rem(_fpoly_mul(fpoly_deriv(f), g), f))
    return _sign_changes(tarski, lo) - _sign_changes(tarski, hi)


def sign_at_root(g_coeffs, f_coeffs, interval):
    """Sign of g at the unique root of f in a checked isolating interval."""
    check_isolating(f_coeffs, interval)
    return tarski_sign(g_coeffs, f_coeffs, interval)
