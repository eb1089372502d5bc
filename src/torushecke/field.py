"""Number field descriptors and exact arithmetic in the order Z[theta].

Elements are integer coordinate tuples over the power basis 1, theta, ...,
theta^(n-1).  Norms come from determinants of multiplication matrices, signs
at real embeddings from one integer comparison (degree 2) or Sturm-chain
root isolation (higher degree), so every decision made here is exact.
"""

import json
from functools import lru_cache
from typing import NamedTuple

from . import sturm
from .errors import ValidationError
from .forms import power_basis, rho_cycles
from .galois import factor_int, is_prime, poly_is_irreducible, poly_trim, power
from .intlinalg import IntMatrix, det

IRREDUCIBILITY_SCAN_LIMIT = 300


class FieldDescriptor(NamedTuple):
    """A number field presented by a monic integral minimal polynomial.

    fundamental_units has length r1 + r2 - 1; torsion_generator has exact
    order torsion_order.  provenance records whether the data was built in
    native quadratic mode or ingested from a descriptor file.
    """

    label: str
    min_poly: tuple
    signature: tuple
    torsion_order: int
    torsion_generator: tuple
    fundamental_units: tuple
    class_number: int
    provenance: str = "native"

    @property
    def degree(self):
        return len(self.min_poly) - 1

    @property
    def unit_rank(self):
        r1, r2 = self.signature
        return r1 + r2 - 1

    def one(self):
        return (1,) + (0,) * (self.degree - 1)


def element_neg(x):
    return tuple(-a for a in x)


def reduce_mod_min_poly(coeffs, min_poly):
    """Reduce an integer polynomial modulo a monic min_poly, returning n coords."""
    n = len(min_poly) - 1
    c = list(coeffs) + [0] * max(0, n - len(coeffs))
    for i in range(len(c) - 1, n - 1, -1):
        t = c[i]
        if t:
            c[i] = 0
            for j in range(n):
                c[i - n + j] -= t * min_poly[j]
    return tuple(c[:n])


def element_mul(x, y, F: FieldDescriptor):
    n = F.degree
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    return reduce_mod_min_poly(prod, F.min_poly)


def element_pow(x, e, F: FieldDescriptor):
    if e < 0:
        raise ValueError("negative powers need a unit inverse; use unit machinery")
    return power(x, e, lambda a, b: element_mul(a, b, F), F.one())


def multiplication_matrix(x, F: FieldDescriptor):
    """Matrix of y -> x*y over the power basis, columns indexed by basis."""
    n = F.degree
    cols = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        cols.append(element_mul(x, e, F))
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(rows)


def element_norm(x, F: FieldDescriptor):
    return det(multiplication_matrix(x, F))


def element_unit_inverse(x, F: FieldDescriptor):
    """Inverse of a unit of the order, by Cramer's rule on the mult matrix."""
    m = multiplication_matrix(x, F)
    n = F.degree
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"element with norm {d} is not a unit of the order")
    out = []
    for i in range(n):
        rows = [
            [(1 if r == 0 else 0) if c == i else m[r, c] for c in range(n)]
            for r in range(n)
        ]
        out.append(det(IntMatrix.from_rows(rows)) * d)
    return tuple(out)


@lru_cache(maxsize=None)
def _real_root_intervals(min_poly):
    """Isolating intervals of the real roots, largest root first.

    The first real embedding sends theta to the largest real root; this
    ordering convention is what fixes the meaning of sign vectors.  The
    intervals are checked once here, so real_signs needs only tarski_sign.
    """
    roots = sturm.isolate_real_roots(min_poly)
    for iv in roots:
        sturm.check_isolating(min_poly, iv)
    return tuple(sorted(roots, key=lambda iv: iv[0], reverse=True))


def _sign_plus_sqrt(u, v, D):
    """Sign of u + v*sqrt(D) for integers u, v and D > 0, exactly."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    # opposite signs: the term of larger absolute value wins
    lhs, rhs = u * u, v * v * D
    return su if lhs > rhs else sv if lhs < rhs else 0


def real_signs(x, F: FieldDescriptor):
    """Sign of x at each real embedding, as a tuple over {1, -1}.

    At degree 2 the roots of x^2 + c1*x + c0 are (-c1 +- sqrt D)/2, so
    2*(a + b*theta) = u +- b*sqrt D with u = 2a - b*c1: one integer
    comparison per root, the larger root first.  Higher degrees use one
    Sturm-Tarski query per root.
    """
    if all(a == 0 for a in x):
        raise ValueError("sign vector of zero is undefined")
    c0, c1 = F.min_poly[0], F.min_poly[1]
    D = c1 * c1 - 4 * c0
    if F.degree == 2 and D > 0:
        u = 2 * x[0] - x[1] * c1
        out = (_sign_plus_sqrt(u, x[1], D), _sign_plus_sqrt(u, -x[1], D))
    else:
        out = tuple(
            sturm.tarski_sign(x, F.min_poly, iv) for iv in _real_root_intervals(F.min_poly)
        )
    if 0 in out:
        raise ArithmeticError("element vanishes at a real embedding")
    return out


def is_totally_positive(x, F: FieldDescriptor):
    r1 = F.signature[0]
    if r1 == 0:
        return True
    return all(s == 1 for s in real_signs(x, F))


def poly_discriminant(min_poly):
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') for monic f, via Sylvester."""
    f = tuple(min_poly)
    n = len(f) - 1
    fp = tuple(i * f[i] for i in range(1, len(f)))
    m = n + (n - 1)
    rows = []
    frev = list(reversed(f))
    for i in range(n - 1):
        rows.append([0] * i + frev + [0] * (m - n - 1 - i))
    fprev = list(reversed(fp))
    for i in range(n):
        rows.append([0] * i + fprev + [0] * (m - n - i))
    res = det(IntMatrix.from_rows(rows))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def validate_descriptor(F: FieldDescriptor):
    """Check a descriptor's internal consistency; returns certificate data.

    Irreducibility is certified by exhibiting a prime modulo which min_poly
    stays irreducible.  Polynomials irreducible over Q that factor modulo
    every prime (plenty exist) are rejected: this validator trades a class
    of valid inputs for an exact, cheap certificate.  A real quadratic
    descriptor must carry the fundamental unit (up to sign and inverse) and
    the true class number; in other signatures only the unit norms are
    checked, and the class number must be 1, as the class group machinery
    (classnumber.WideClassGroup) is native to real quadratic fields only.
    """
    f = poly_trim(F.min_poly)
    n = len(f) - 1
    if n < 2:
        raise ValidationError("min_poly must have degree at least 2")
    if f != tuple(F.min_poly):
        raise ValidationError("min_poly has trailing zero coefficients")
    if f[-1] != 1:
        raise ValidationError("min_poly must be monic")
    r1, r2 = F.signature
    if r1 + 2 * r2 != n:
        raise ValidationError(f"signature {F.signature} inconsistent with degree {n}")
    if (r1, r2) in ((1, 0), (0, 1)):
        raise ValidationError("rational and imaginary quadratic fields are out of scope")
    cert = None
    for ell in range(2, IRREDUCIBILITY_SCAN_LIMIT):
        if not is_prime(ell):
            continue
        fm = poly_trim(tuple(c % ell for c in f))
        if len(fm) - 1 == n and poly_is_irreducible(fm, ell):
            cert = ell
            break
    if cert is None:
        raise ValidationError("no prime certificate of irreducibility found")
    nreal = sturm.count_real_roots(f)
    if nreal != r1:
        raise ValidationError(f"min_poly has {nreal} real roots, signature says {r1}")
    w = F.torsion_order
    if w < 2:
        raise ValidationError("torsion order must be at least 2 (-1 is always a unit)")
    if r1 > 0 and (w != 2 or F.torsion_generator != element_neg(F.one())):
        raise ValidationError("fields with a real place have torsion {1, -1} only")
    z = F.torsion_generator
    if element_pow(z, w, F) != F.one():
        raise ValidationError("torsion generator does not have the stated order")
    for q in factor_int(w):
        if element_pow(z, w // q, F) == F.one():
            raise ValidationError("torsion generator order is a proper divisor of w")
    if len(F.fundamental_units) != F.unit_rank:
        raise ValidationError(
            f"expected {F.unit_rank} fundamental units, got {len(F.fundamental_units)}"
        )
    for u in F.fundamental_units:
        if element_norm(u, F) not in (1, -1):
            raise ValidationError(f"unit candidate {u} has norm != +-1")
    if F.class_number < 1:
        raise ValidationError("class number must be positive")
    if (r1, r2) == (2, 0):
        _certify_real_quadratic(F)
    elif F.class_number > 1:
        raise ValidationError("class numbers above 1 are native to real quadratic fields only")
    return {"irreducibility_certificate_prime": cert, "real_roots": nreal}


def _certify_real_quadratic(F: FieldDescriptor):
    """The unit must be +-eps^+-1 and the class number the number of
    rho-cycles of primitive reduced forms, both read off forms.rho_cycles
    of D = disc(min_poly)."""
    c0, c1 = F.min_poly[0], F.min_poly[1]
    cycles = rho_cycles(c1 * c1 - 4 * c0)
    eps = power_basis(cycles.unit, F.min_poly)
    u = F.fundamental_units[0]
    signs = (F.one(), element_neg(F.one()))
    if u not in (eps, element_neg(eps)) and element_mul(u, eps, F) not in signs:
        raise ValidationError(f"unit {u} is not +-eps^+-1 for the fundamental unit eps = {eps}")
    h = cycles.class_number
    if F.class_number != h:
        raise ValidationError(f"class number {F.class_number} disagrees with the {h} rho-cycles")


def load_descriptor(source):
    """Build and validate a FieldDescriptor from a JSON file path or dict."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    try:
        F = FieldDescriptor(
            label=str(data["label"]),
            min_poly=tuple(int(c) for c in data["min_poly"]),
            signature=tuple(int(c) for c in data["signature"]),
            torsion_order=int(data["torsion"]["order"]),
            torsion_generator=tuple(int(c) for c in data["torsion"]["generator"]),
            fundamental_units=tuple(
                tuple(int(c) for c in u) for u in data["fundamental_units"]
            ),
            class_number=int(data["class_number"]),
            provenance="ingested",
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed field descriptor: {exc}") from exc
    validate_descriptor(F)
    return F
