"""Principal generator search for ideals of Z[theta].

Degree 2 gets a complete decision procedure: a generator u + v*theta of an
ideal of norm m satisfies the norm equation with |v| inside a window derived
from the fundamental unit, so scanning v and testing a discriminant for
squareness either finds a generator or proves none exists.  Higher degree
falls back to bounded box enumeration and reports exhaustion honestly as
inconclusive rather than as absence.
"""

from dataclasses import dataclass
from math import isqrt

from .field import FieldDescriptor, element_norm
from .ideals import IdealHNF, principal_ideal

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"

BOX_RADIUS = 12


@dataclass(frozen=True)
class PrincipalSearchResult:
    status: str
    generator: tuple | None = None

    @property
    def found(self):
        return self.status == FOUND


def principal_generator(a: IdealHNF, F: FieldDescriptor):
    """Find x with (x) = a, exactly verified through HNF equality.

    Returns a tri-state result: found (with generator), not_found (only from
    the complete quadratic mode), or inconclusive (general-mode exhaustion
    of the box of radius BOX_RADIUS).
    """
    if F.degree == 2 and F.signature[0] == 2:
        return _quadratic_search(a, F)
    return _box_search(a, F, BOX_RADIUS)


def _unit_height_bound(F: FieldDescriptor):
    # crude bound on |fundamental unit| at any embedding; only growth matters
    c0, c1 = F.min_poly[0], F.min_poly[1]
    theta_bound = 1 + max(abs(c0), abs(c1))
    e = F.fundamental_units[0]
    return abs(e[0]) + abs(e[1]) * theta_bound


def _quadratic_search(a: IdealHNF, F: FieldDescriptor):
    """Scan the norm equation u^2 - c1*u*v + c0*v^2 = +-m over the v window.

    Any generator can be slid by unit powers until both embeddings are at
    most sqrt(m) times the unit height bound, which caps |v| by the window
    below; the scan is therefore exhaustive and not_found is a proof.
    """
    m = a.norm
    c0, c1 = F.min_poly[0], F.min_poly[1]
    D = c1 * c1 - 4 * c0
    eb = _unit_height_bound(F)
    v_bound = 2 * (isqrt(m) + 1) * eb
    for v in range(v_bound + 1):
        for sign in (1, -1):
            delta = D * v * v + 4 * sign * m
            if delta < 0:
                continue
            t = isqrt(delta)
            if t * t != delta:
                continue
            for tt in (t, -t) if t else (0,):
                num = c1 * v + tt
                if num % 2:
                    continue
                u = num // 2
                cand = (u, v)
                # (-u, -v) generates the same ideal, so v >= 0 loses nothing
                if cand == (0, 0) or not a.contains(cand):
                    continue
                if principal_ideal(cand, F) == a:
                    return PrincipalSearchResult(FOUND, cand)
    return PrincipalSearchResult(NOT_FOUND)


def _box_search(a: IdealHNF, F: FieldDescriptor, radius):
    """Exhaustive coordinate box scan; exhaustion is only inconclusive."""
    n = F.degree
    m = a.norm
    idx = [-radius] * n
    while True:
        x = tuple(idx)
        if any(idx) and a.contains(x) and abs(element_norm(x, F)) == m:
            if principal_ideal(x, F) == a:
                return PrincipalSearchResult(FOUND, x)
        i = n - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] <= radius:
                break
            idx[i] = -radius
            i -= 1
        if i < 0:
            break
    return PrincipalSearchResult(INCONCLUSIVE)
