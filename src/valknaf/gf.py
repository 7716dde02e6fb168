"""Finite fields GF(p^n) with a canonical modulus, and factorization.

GF(p^n) is realized as F_p[y]/(m(y)) where m is the first monic irreducible
polynomial of degree n in the enumeration that counts coefficient vectors
(c_0, ..., c_{n-1}) as base-p integers.  Fields are cached, so equal
parameters give the identical object and elements can be compared freely.

Intended for the small fields arising as residue fields of the valuations in
this package; the factorization routine is the deterministic Berlekamp
method (kernel of Frobenius minus identity, splitting by gcds against all
field constants), fine for small q, never randomized.
"""

from __future__ import annotations

from functools import lru_cache

from sympy import isprime

from .poly import Poly, poly_gcd

# ---------------------------------------------------------------------------
# integer-coefficient helpers for F_p[y] (used before any field object exists)


def _pf_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pf_trim(out)


def _pf_mod(a, m, p):
    a = a[:]
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        if c:
            off = len(a) - len(m)
            for j, y in enumerate(m):
                a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _pf_trim(a)


def _pf_powmod(a, e, m, p):
    out = [1]
    base = _pf_mod(a, m, p)
    while e:
        if e & 1:
            out = _pf_mod(_pf_mul(out, base, p), m, p)
        base = _pf_mod(_pf_mul(base, base, p), m, p)
        e >>= 1
    return out


def _pf_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a = _pf_mod(a, b, p)
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pf_irreducible(m, p) -> bool:
    """Deterministic irreducibility over F_p: y^(p^k) tests."""
    n = len(m) - 1
    if n <= 0:
        return False
    y = [0, 1]
    power = y[:]
    for k in range(1, n // 2 + 1):
        power = _pf_powmod(power, p, m, p)
        diff = power[:]
        # subtract y
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pf_gcd(m, _pf_trim(diff), p)
        if g != [1]:
            return False
    power = y[:]
    for _ in range(n):
        power = _pf_powmod(power, p, m, p)
    diff = power[:]
    while len(diff) < 2:
        diff.append(0)
    diff[1] = (diff[1] - 1) % p
    return not _pf_trim(diff)


def _canonical_modulus(p, n):
    if n == 1:
        return (0, 1)
    for k in range(p ** n):
        coeffs = []
        kk = k
        for _ in range(n):
            coeffs.append(kk % p)
            kk //= p
        m = coeffs + [1]
        if _pf_irreducible(m, p):
            return tuple(m)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class GFElement:
    """Element of GF(p^n): coefficient tuple of length n over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(c % field.p for c in coeffs))
        if len(self.coeffs) != field.n:
            raise ValueError("coefficient vector has wrong length")

    def __setattr__(self, *args):
        raise AttributeError("GFElement is immutable")

    def __eq__(self, other):
        return (isinstance(other, GFElement) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        other = self.field.coerce(other)
        return GFElement(self.field,
                         [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return GFElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        prod = _pf_mul(list(self.coeffs), list(other.coeffs), p)
        prod = _pf_mod(prod, list(self.field.modulus), p)
        return self.field._from_list(prod)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in a finite field")
        p = self.field.p
        # extended euclid in F_p[y]
        r0, r1 = list(self.field.modulus), _pf_trim(list(self.coeffs))
        t0, t1 = [], [1]
        while _pf_trim(r1[:]):
            q, r = _pf_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _pf_sub(t0, _pf_mul(q, t1, p), p)
        lead_inv = pow(r0[-1], -1, p)
        t0 = [c * lead_inv % p for c in t0]
        return self.field._from_list(_pf_mod(t0, list(self.field.modulus), p))

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def int_value(self) -> int:
        """Canonical integer encoding sum c_i p^i (enumeration order)."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def __repr__(self):
        if self.field.n == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                s = "y" if i == 1 else f"y^{i}"
                parts.append(s if c == 1 else f"{c}*{s}")
        return "(" + (" + ".join(parts) if parts else "0") + ")"


def _pf_divmod(a, b, p):
    a = a[:]
    b = _pf_trim(b[:])
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and _pf_trim(a[:]):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        off = len(a) - len(b)
        q[off] = c
        for j, y in enumerate(b):
            a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _pf_trim(q), _pf_trim(a)


def _pf_sub(a, b, p):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append((x - y) % p)
    return _pf_trim(out)


class FiniteField:
    """GF(p^n); use the `GF(p, n)` factory so fields are unique objects."""

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.q = p ** n
        self.characteristic = p
        self.modulus = _canonical_modulus(p, n)
        self.zero = GFElement(self, [0] * n)
        self.one = GFElement(self, [1] + [0] * (n - 1))

    def _from_list(self, coeffs):
        coeffs = list(coeffs) + [0] * (self.n - len(coeffs))
        return GFElement(self, coeffs)

    def coerce(self, x):
        if isinstance(x, GFElement):
            if x.field is self:
                return x
            if x.field.p == self.p and x.field.n == 1:
                return self._from_list([x.coeffs[0]])
            raise ValueError(f"cannot coerce element of {x.field} into {self}")
        if isinstance(x, int):
            return self._from_list([x % self.p])
        from fractions import Fraction
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes in GF")
            num = self._from_list([x.numerator % self.p])
            den = self._from_list([x.denominator % self.p])
            return num / den
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def element(self, coeffs):
        return self._from_list(list(coeffs))

    def generator(self):
        """Class of y (equals 1 when n = 1)."""
        if self.n == 1:
            return self.one
        return self._from_list([0, 1])

    def elements(self):
        """All q elements in canonical (integer-encoding) order."""
        for k in range(self.q):
            coeffs = []
            kk = k
            for _ in range(self.n):
                coeffs.append(kk % self.p)
                kk //= self.p
            yield GFElement(self, coeffs)

    def elem_key(self, c):
        return c.int_value()

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.n == other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"GF({self.p})" if self.n == 1 else f"GF({self.p}^{self.n})"


@lru_cache(maxsize=None)
def GF(p: int, n: int = 1) -> FiniteField:
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    return FiniteField(p, n)


@lru_cache(maxsize=None)
def _embedding_root(small: FiniteField, big: FiniteField) -> GFElement:
    """Image of small's generator in big: first root in canonical order."""
    if small.p != big.p or big.n % small.n != 0:
        raise ValueError(f"no embedding of {small} into {big}")
    mod = list(small.modulus)
    for cand in big.elements():
        acc = big.zero
        for c in reversed(mod):
            acc = acc * cand + big.coerce(c)
        if not acc:
            return cand
    raise RuntimeError("canonical modulus has no root in the big field")


def embed(small: FiniteField, big: FiniteField):
    """The canonical embedding GF(p^a) -> GF(p^ab) as a callable."""
    if small is big:
        return lambda x: x
    root = _embedding_root(small, big)

    def phi(x: GFElement) -> GFElement:
        acc = big.zero
        for c in reversed(x.coeffs):
            acc = acc * root + big.coerce(c)
        return acc

    return phi


# ---------------------------------------------------------------------------
# factorization over GF(q)


def _pth_root_poly(f: Poly) -> Poly:
    """For f with zero derivative, the g with g(x^p) = f."""
    field = f.field
    p = field.p
    coeffs = []
    for i in range(0, f.degree + 1, p):
        c = f[i]
        # p-th root in GF(p^n) is c -> c^(p^(n-1))
        coeffs.append(c ** (p ** (field.n - 1)))
    return Poly(field, coeffs)


def squarefree_decomposition(f: Poly):
    """[(g, m)] with f = lc * prod g^m, the g monic squarefree coprime.

    Characteristic-p aware: the inseparable part is pulled out through
    p-th roots, so inputs like h(x^p) are handled exactly.
    """
    field = f.field
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    out = {}

    def add(g, m):
        if g.degree > 0:
            out[m] = out[m] * g if m in out else g

    d = f.derivative()
    if d.is_zero():
        for g, m in squarefree_decomposition(_pth_root_poly(f)):
            add(g, m * field.p)
        return [(g, m) for m, g in sorted(out.items())]
    c = poly_gcd(f, d)
    w = (f // c).monic()
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = (w // y).monic()
        add(z, i)
        w = y
        c = (c // y).monic()
        i += 1
    if c.degree > 0:
        for g, m in squarefree_decomposition(_pth_root_poly(c)):
            add(g, m * field.p)
    return [(g, m) for m, g in sorted(out.items())]


def _frobenius_kernel(f: Poly):
    """Basis of {b : b^q = b mod f} as polynomials of degree < deg f."""
    field = f.field
    n = f.degree
    x = Poly.x(field)
    xq = _powmod(x, field.q, f)
    # rows of (M - I): image of x^i under Frobenius minus identity
    rows = []
    power = Poly.one(field)
    for i in range(n):
        img = power
        col = [img[j] for j in range(n)]
        col[i] = col[i] - field.one
        rows.append(col)
        power = (power * xq) % f
    # kernel of the transpose action: solve sum_i a_i * rows[i] = 0
    mat = [[rows[i][j] for i in range(n)] for j in range(n)]
    return [Poly(field, v) for v in _nullspace(mat, field)]


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    out = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def _nullspace(mat, field):
    """Basis of the right nullspace of mat over a finite field."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [row[:] for row in mat]
    piv_of_col = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != field.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.one / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                fct = m[i][c]
                m[i] = [a - fct * b for a, b in zip(m[i], m[r])]
        piv_of_col[c] = r
        r += 1
    basis = []
    for free in range(cols):
        if free in piv_of_col:
            continue
        v = [field.zero] * cols
        v[free] = field.one
        for c, row in piv_of_col.items():
            v[c] = -m[row][free]
        basis.append(v)
    return basis


def _berlekamp_irreducibles(f: Poly):
    """Irreducible monic factors of a monic squarefree f over GF(q)."""
    field = f.field
    if f.degree <= 1:
        return [f]
    kernel = _frobenius_kernel(f)
    r = len(kernel)
    if r == 1:
        return [f]
    splitter = next(b for b in kernel if b.degree > 0)
    pieces = []
    for c in field.elements():
        g = poly_gcd(f, splitter - Poly.constant(field, c))
        if g.degree > 0:
            pieces.append(g)
    assert len(pieces) >= 2, "Berlekamp splitter failed to split"
    out = []
    for piece in pieces:
        out.extend(_berlekamp_irreducibles(piece))
    return out


def factor(f: Poly):
    """Monic irreducible factors with multiplicity, deterministic order.

    Returns (lead, [(g, m), ...]) sorted by (degree, coefficient key);
    lead is the leading coefficient of f.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    lead = f.leading()
    pairs = []
    for g, m in squarefree_decomposition(f):
        for irr in _berlekamp_irreducibles(g):
            pairs.append((irr, m))
    pairs.sort(key=lambda t: t[0].sort_key())
    return lead, pairs


def roots(f: Poly):
    """Roots in the coefficient field, in canonical element order."""
    out = []
    for c in f.field.elements():
        if f(c) == f.field.zero:
            out.append(c)
    return out
