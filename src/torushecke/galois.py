"""Finite fields, polynomial factorization mod a prime, and p-power characters.

Polynomials over F_ell are coefficient tuples in little-endian order with no
trailing zeros (the zero polynomial is the empty tuple).  Factorization runs
squarefree decomposition, then distinct-degree splitting by modular Frobenius
powers, then equal-degree splitting by Cantor-Zassenhaus (the trace map in
characteristic 2) with a seed derived from the input, so results are
reproducible.  A monic quadratic over an odd ell, the shape of every native
field's min_poly, is split by its discriminant instead: Euler's criterion,
then a Tonelli-Shanks square root.  Characters and generator proofs in a
prime field F_ell run on integers mod ell with pow.
"""

import random
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .errors import CapExceeded, CharacterUndefined, GeneratorError

GENERATOR_FIELD_CAP = 10**9


# ---------------------------------------------------------------------------
# integer helpers

def factor_int(n):
    """Prime factorization by trial division; n must be positive."""
    if n <= 0:
        raise ValueError("positive integers only")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def power(x, e, mul, acc):
    """acc * x^e for an integer e >= 0, by square-and-multiply under mul."""
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def order_fault(g, n, primes, mul, one):
    """None when g has order n under mul, primes being the prime divisors of
    n; else why not.  g^n = one is read off as (g^(n/r))^r for the first r."""
    parts = [(r, power(g, n // r, mul, one)) for r in primes]
    r, h = parts[0] if parts else (1, g)
    if power(h, r, mul, one) != one:
        return f"order does not divide {n}"
    for r, h in parts:
        if h == one:
            return f"order divides {n}/{r}"


class CyclicGroup:
    """The cyclic group of order n = prod r^e over factors (prime ->
    exponent) on the generator g under mul, with discrete logs.

    The order of g is proved here, by order_fault.
    log is Pohlig-Hellman over the prime powers r^e of n: the log mod r^e
    of x is the k with h^k = x^(n/r^e) for h = g^(n/r^e) of order r^e,
    found by baby-step giant-step on a table built here.  The residues are
    joined by CRT and the answer is checked by g^k = x.  Elements must be
    hashable.
    """

    def __init__(self, g, factors, mul, one):
        n = 1
        for r, e in factors.items():
            n *= r**e
        fault = order_fault(g, n, factors, mul, one)
        if fault:
            raise ArithmeticError(f"generator {fault}")
        self.generator, self.order, self.mul, self.one = g, n, mul, one
        self._parts = []
        for r, e in sorted(factors.items()):
            re = r**e
            h = power(g, n // re, mul, one)
            steps = isqrt(re - 1) + 1
            baby = {}
            y = one
            for j in range(steps):
                baby[y] = j
                y = mul(y, h)
            self._parts.append((re, n // re, steps, baby, power(h, -steps % re, mul, one)))

    def log(self, x):
        """The k in [0, n) with g^k = x; ArithmeticError if there is none."""
        mul, one = self.mul, self.one
        k, m = 0, 1
        for re, cofactor, steps, baby, giant in self._parts:
            y = power(x, cofactor, mul, one)
            for i in range(steps):
                if y in baby:
                    k_r = i * steps + baby[y]
                    break
                y = mul(y, giant)
            else:
                raise ArithmeticError(f"element outside the subgroup of order {re}")
            k += m * ((k_r - k) * pow(m, -1, re) % re)
            m *= re
        if power(self.generator, k, mul, one) != x:
            raise ArithmeticError("discrete log does not reproduce the element")
        return k


def primes_stream(start=2):
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_ell

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b, ell):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % ell
    return poly_trim(out)


def poly_sub(a, b, ell):
    return poly_add(a, tuple(-x % ell for x in b), ell)


def poly_mul(a, b, ell):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % ell
    return poly_trim(out)


def poly_divmod(a, b, ell):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], ell - 2, ell)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv) % ell
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % ell
    return poly_trim(q), poly_trim(a)


def poly_mod(a, b, ell):
    return poly_divmod(a, b, ell)[1]


def poly_gcd(a, b, ell):
    while b:
        a, b = b, poly_mod(a, b, ell)
    return poly_monic(a, ell)


def poly_powmod(a, e, mod, ell):
    def mul(x, y):
        return poly_mod(poly_mul(x, y, ell), mod, ell)

    return power(poly_mod(a, mod, ell), e, mul, (1,))


def poly_monic(a, ell):
    if not a:
        return a
    inv = pow(a[-1], ell - 2, ell)
    return tuple((c * inv) % ell for c in a)


def poly_deriv(a, ell):
    return poly_trim([(i * a[i]) % ell for i in range(1, len(a))])


def poly_is_irreducible(f, ell):
    """Rabin test: x^(ell^n) = x mod f, and no proper Frobenius fixes."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = (0, 1)
    for q in factor_int(n):
        e = ell ** (n // q)
        g = poly_powmod(x, e, f, ell)
        if poly_gcd(poly_sub(g, x, ell), f, ell) != (1,):
            return False
    g = poly_powmod(x, ell ** n, f, ell)
    return poly_sub(g, x, ell) == ()


# ---------------------------------------------------------------------------
# factorization mod ell

def factor_poly_mod_ell(coeffs, ell):
    """Factor a nonzero polynomial over F_ell.

    Returns a list of (monic irreducible tuple, multiplicity), sorted by
    (degree, balanced coefficient tuple).  The leading coefficient is
    discarded after monic normalization, so only monic factors are reported.
    """
    f = poly_trim(tuple(c % ell for c in coeffs))
    if not f:
        raise ValueError("zero polynomial")
    f = poly_monic(f, ell)
    if len(f) == 3 and ell % 2:
        items = _factor_quadratic(f, ell)
    else:
        factors = {}
        _factor_with_multiplicity(f, ell, 1, factors)
        items = list(factors.items())
    items.sort(key=lambda gm: (len(gm[0]), balanced_coeffs(gm[0], ell)))
    return items


def _factor_quadratic(f, ell):
    """Factors of a monic quadratic f = x^2 + b x + c over F_ell, ell an odd
    prime, from its discriminant: irreducible when that is a non-residue,
    else (x - r)(x - r') with r = (-b +- sqrt(disc)) / 2, each root checked
    by substitution."""
    c, b, _ = f
    disc = (b * b - 4 * c) % ell
    if disc and pow(disc, (ell - 1) // 2, ell) != 1:
        return [(f, 1)]
    root = sqrt_mod(disc, ell)
    half = (ell + 1) // 2
    roots = {(-b + root) * half % ell, (-b - root) * half % ell}
    for r in roots:
        if (r * r + b * r + c) % ell:
            raise ArithmeticError(f"{r} is not a root of {f} mod {ell}")
    mult = 3 - len(roots)
    return [((-r % ell, 1), mult) for r in roots]


def sqrt_mod(a, ell):
    """A square root of a quadratic residue a mod an odd prime ell, by
    Tonelli-Shanks (a root of 0 is 0); ArithmeticError when none is found."""
    a %= ell
    if a == 0:
        return 0
    q, s = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    x, t = pow(a, (q + 1) // 2, ell), pow(a, q, ell)
    if t == 1:
        return x
    # a non-residue z: its q-th power generates the 2-Sylow subgroup
    z = next((z for z in range(2, ell) if pow(z, (ell - 1) // 2, ell) == ell - 1), None)
    if z is None:
        raise ArithmeticError(f"no quadratic non-residue mod {ell}")
    c = pow(z, q, ell)
    while t != 1:
        # the least i with t^(2^i) = 1
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
            if i == s:
                raise ArithmeticError(f"{a} is not a square mod {ell}")
        b = pow(c, 1 << (s - i - 1), ell)
        x, c = x * b % ell, b * b % ell
        t, s = t * c % ell, i
    return x


def balanced_coeffs(g, ell):
    """Coefficients folded into (-ell/2, ell/2]; the factor and scan order."""
    half = ell // 2
    return tuple(((c + half) % ell) - half for c in g)


def _factor_with_multiplicity(f, ell, mult, out):
    """Recursive multiplicity peel.

    The quotient f / gcd(f, f') is squarefree and carries exactly the
    irreducible factors whose multiplicity is prime to ell; after stripping
    those by trial division, what remains is an ell-th power and recursion
    picks it up through the zero-derivative branch.
    """
    if len(f) <= 1:
        return
    d = poly_deriv(f, ell)
    if d == ():
        # f(x) = h(x)**ell with h read off every ell-th coefficient
        root = poly_trim([f[i] for i in range(0, len(f), ell)])
        _factor_with_multiplicity(root, ell, mult * ell, out)
        return
    g = poly_gcd(f, d, ell)
    w, _ = poly_divmod(f, g, ell)
    rem = f
    for irr in _factor_squarefree(w, ell):
        e = 0
        while True:
            q, r = poly_divmod(rem, irr, ell)
            if r != ():
                break
            e += 1
            rem = q
        out[irr] = out.get(irr, 0) + mult * e
    _factor_with_multiplicity(rem, ell, mult, out)


def _factor_squarefree(f, ell):
    """Irreducible factors of a squarefree monic polynomial."""
    if len(f) <= 1:
        return []
    out = []
    x = (0, 1)
    h = x
    v = f
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_powmod(h, ell, v, ell)
        g = poly_gcd(poly_sub(h, x, ell), v, ell)
        if g != (1,):
            out.extend(_equal_degree_split(g, d, ell))
            v, _ = poly_divmod(v, g, ell)
            h = poly_mod(h, v, ell)
    if len(v) > 1:
        out.append(v)
    return out


def _equal_degree_split(g, d, ell):
    """Split a product of distinct degree-d irreducibles by Cantor-Zassenhaus,
    with a seed tied to the input polynomial."""
    rng = random.Random(hash((g, d, ell)) & 0xFFFFFFFF)
    work = [g]
    out = []
    q = ell ** d
    while work:
        f = work.pop()
        n = len(f) - 1
        if n == d:
            out.append(f)
            continue
        while True:
            a = tuple(rng.randrange(ell) for _ in range(n)) + (1,)
            if ell == 2:
                # trace map splitting in characteristic 2
                t = a
                acc = a
                for _ in range(d - 1):
                    acc = poly_powmod(acc, 2, f, ell)
                    t = poly_add(t, acc, ell)
                h = poly_gcd(t, f, ell)
            else:
                b = poly_powmod(a, (q - 1) // 2, f, ell)
                h = poly_gcd(poly_sub(b, (1,), ell), f, ell)
            if h not in ((1,), ()) and len(h) < len(f):
                work.append(h)
                work.append(poly_divmod(f, h, ell)[0])
                break
    return out


# ---------------------------------------------------------------------------
# extension fields

class FqField(NamedTuple):
    """The field with ell**f elements, as F_ell[t] / (modulus)."""

    ell: int
    f: int
    modulus: tuple

    @property
    def order(self):
        return self.ell ** self.f

    def element(self, coords):
        coords = tuple(c % self.ell for c in coords)
        if len(coords) > self.f:
            coords = poly_mod(coords, self.modulus, self.ell)
        coords = coords + (0,) * (self.f - len(coords))
        return FqElement(self, coords)

    def from_int(self, n):
        """Integer encoding by base-ell digits; inverse of FqElement.encode()."""
        digits = []
        n = int(n)
        for _ in range(self.f):
            digits.append(n % self.ell)
            n //= self.ell
        return self.element(tuple(digits))

    def zero(self):
        return self.element((0,) * self.f)

    def one(self):
        return self.element((1,) + (0,) * (self.f - 1))


class FqElement(NamedTuple):
    field: FqField
    coords: tuple

    def encode(self):
        n = 0
        for c in reversed(self.coords):
            n = n * self.field.ell + c
        return n

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __mul__(self, other):
        fld = self.field
        prod = poly_mul(self.coords, other.coords, fld.ell)
        return fld.element(poly_mod(prod, fld.modulus, fld.ell))

    def __add__(self, other):
        return self.field.element(poly_add(self.coords, other.coords, self.field.ell))

    def __sub__(self, other):
        return self.field.element(poly_sub(self.coords, other.coords, self.field.ell))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, FqElement.__mul__, self.field.one())

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.order - 2)


@lru_cache(maxsize=None)
def find_generator(field: FqField) -> FqElement:
    """Deterministic generator of the multiplicative group.

    Candidates are scanned in ascending integer encoding starting from 2,
    and each candidate's order is verified against the factored group order.
    When f > 1 the scan starts at ell instead: the encodings below ell are
    the constants F_ell, whose orders divide ell - 1 < q - 1.  Fields larger
    than the cap are refused so trial division stays honest.
    """
    q = field.order
    if q > GENERATOR_FIELD_CAP:
        raise CapExceeded(f"field order {q} exceeds generator search cap")
    if q == 2:
        # trivial multiplicative group: its generator is the identity
        return field.one()
    fac = factor_int(q - 1)
    if field.f == 1:
        # F_ell is the integers mod ell, so a candidate is tested as one
        def is_generator(enc):
            return all(pow(enc, (q - 1) // r, q) != 1 for r in fac)
    else:
        def is_generator(enc):
            x = field.from_int(enc)
            return order_fault(x, q - 1, fac, FqElement.__mul__, field.one()) is None

    for enc in range(field.ell if field.f > 1 else 2, q):
        if is_generator(enc):
            return field.from_int(enc)
    raise GeneratorError("multiplicative group has no generator?")


def _mul_mod(q):
    return lambda a, b: a * b % q


def verify_generator(g: FqElement):
    fld = g.field
    q = fld.order
    if q > GENERATOR_FIELD_CAP:
        raise CapExceeded(f"field order {q} exceeds generator search cap")
    fac = factor_int(q - 1)
    if fld.f == 1:
        # F_ell is the integers mod ell
        fault = order_fault(g.coords[0], q - 1, fac, _mul_mod(q), 1)
    else:
        fault = order_fault(g, q - 1, fac, FqElement.__mul__, fld.one())
    if fault:
        raise GeneratorError(f"element {g.coords}: {fault}")


def pth_character(x: FqElement, p: int, g: FqElement) -> int:
    """Order-p character value of x, under the generator convention g.

    With zeta = g**((q-1)/p), returns the k in F_p with
    x**((q-1)/p) = zeta**k.  Requires p | q - 1, x != 0 and g a generator
    of x's field.  In a prime field the powers are integer pows mod ell.
    """
    fld = x.field
    if g.field != fld:
        raise CharacterUndefined(f"generator of {g.field} for an element of {fld}")
    q = fld.order
    if (q - 1) % p != 0:
        raise CharacterUndefined(f"p={p} does not divide q-1={q - 1}")
    if x.is_zero():
        raise CharacterUndefined("character of zero")
    verify_generator(g)
    e = (q - 1) // p
    if fld.f == 1:
        zeta, y, acc = pow(g.coords[0], e, q), pow(x.coords[0], e, q), 1
        mul = _mul_mod(q)
    else:
        zeta, y, acc = g ** e, x ** e, fld.one()
        mul = FqElement.__mul__
    for k in range(p):
        if y == acc:
            return k
        acc = mul(acc, zeta)
    raise ArithmeticError("character value not found; generator invalid?")
