"""Finite fields GF(p^n) with a canonical modulus, and factorization.

GF(p^n) is realized as F_p[y]/(m(y)) where m is the first monic irreducible
polynomial of degree n in the enumeration that counts coefficient vectors
(c_0, ..., c_{n-1}) as base-p integers.  Fields are cached, so equal
parameters give the identical object and elements can be compared freely.

An element is held as one int, its canonical code sum c_i p^i, and the field
does the arithmetic on codes (Cohen, GTM 138): plain arithmetic mod p in
GF(p); in GF(p^n), n > 1, the kernels XOR and a carry-less shift-and-reduce
product for p = 2, and the digit kernels `_pf_mul`/`_pf_mod` for odd p.
Extension fields of at most `_TABLE_MAX_Q` elements replace the kernels by
tables that the kernels build when the field is made: a log/antilog pair
for a primitive element g, so a product is one addition of logs, and for
odd p the Zech logarithms log(1 + g^k), so a sum is one too.

Factorization is Berlekamp's method: the kernel of Frobenius minus identity
gives the split algebra, and factors are separated by equal-degree splitting
(Cantor-Zassenhaus) on random elements of it, drawn from a generator with a
constant seed, so results and operation counts repeat from run to run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .numtheory import isprime, primefactors
from .poly import Poly, poly_gcd

# constant seed of the equal-degree splitting; any value gives the same
# factors, this one fixes the operation counts
_SPLIT_SEED = 0

# extension fields up to this size compute through log/antilog and Zech
# tables; GF(2^13) is the largest field the benchmark workloads build.  The
# tables of GF(3^8) or GF(2^13) take at most 0.1 s and 0.7 MB to build,
# those of GF(3^10) about 1 s and 6 MB, so larger fields keep the kernels
_TABLE_MAX_Q = 2 ** 13

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


def _encode(digits, p) -> int:
    """Code sum c_i p^i of the digit list c_0, c_1, ..."""
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


def _decode(code, p, n) -> list:
    """The n base-p digits of code, lowest first."""
    out = []
    for _ in range(n):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _canonical_modulus(p, n):
    if n == 1:
        return (0, 1)
    for k in range(p ** n):
        m = _decode(k, p, n) + [1]
        if _pf_irreducible(m, p):
            return tuple(m)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# arithmetic on codes: (add, sub, neg, mul, inv) for each kind of field


def _prime_ops(p):
    return ((lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p),
            (lambda a: -a % p), (lambda a, b: a * b % p),
            (lambda a: pow(a, -1, p)))


def _binary_ops(n, modulus):
    """GF(2^n): a code is a bit mask of F_2[y], m(y) the mask `mod`."""
    mod = _encode(modulus, 2)
    top = 1 << n

    def add(a, b):
        return a ^ b

    def mul(a, b):
        # carry-less product, reducing a * y^i by m(y) as it is shifted
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return out

    def inv(a):
        # extended Euclid on bit masks: a*g1 = u, a*g2 = v (mod m)
        u, v, g1, g2 = a, mod, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2 = v, u, g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    return add, add, (lambda a: a), mul, inv


def _digit_ops(p, n, modulus):
    """GF(p^n), p odd: codes decoded to digit lists for the _pf_ kernels."""
    m = list(modulus)

    def add(a, b):
        return _encode([(x + y) % p for x, y in
                        zip(_decode(a, p, n), _decode(b, p, n))], p)

    def sub(a, b):
        return _encode([(x - y) % p for x, y in
                        zip(_decode(a, p, n), _decode(b, p, n))], p)

    def neg(a):
        return _encode([-x % p for x in _decode(a, p, n)], p)

    def mul(a, b):
        return _encode(_pf_mod(_pf_mul(_decode(a, p, n), _decode(b, p, n), p),
                               m, p), p)

    def inv(a):
        # extended Euclid in F_p[y]
        r0, r1 = m, _pf_trim(_decode(a, p, n))
        t0, t1 = [], [1]
        while r1:
            q, r = _pf_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _pf_sub(t0, _pf_mul(q, t1, p), p)
        lead_inv = pow(r0[-1], -1, p)
        return _encode(_pf_mod([c * lead_inv % p for c in t0], m, p), p)

    return add, sub, neg, mul, inv


def _log_tables(p, n, mul):
    """(g, exp, log, zech) for GF(p^n), built with the kernel product mul.

    g is the smallest code of order q - 1.  exp[k] = g^k for 0 <= k < 2(q-1),
    so a sum of two logs needs no reduction; log[a] is the k < q - 1 with
    g^k = a (log[0] is unused).  For odd p, zech[k] = log(1 + g^k) for
    0 <= k < 2(q-1), and None at k = (q-1)/2 (and its repeat), where g^k = -1
    and the sum vanishes.  For p = 2 zech is None: addition is XOR.
    """
    q = p ** n
    order = q - 1

    def power(a, e):
        out = 1
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    cofactors = [order // r for r in primefactors(order)]
    g = next(c for c in range(2, q)
             if all(power(c, e) != 1 for e in cofactors))
    exp = [1] * order
    log = [0] * q
    x = 1
    for k in range(1, order):
        x = mul(x, g)
        exp[k] = x
        log[x] = k
    exp += exp
    if p == 2:
        return g, exp, log, None
    # 1 + c adds 1 to the lowest digit of the code c
    zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp[:order]]
    zech[order // 2] = None
    return g, exp, log, zech + zech


def _table_ops(p, n, kernel):
    """GF(p^n) on codes through the log/antilog and Zech tables of kernel.

    Sums of two logs index exp directly; differences of logs index zech
    with Python's negative indexing, which wraps them mod q - 1 because
    zech repeats with that period.
    """
    _, exp, log, zech = _log_tables(p, n, kernel[3])
    order = p ** n - 1
    half = order // 2

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        return exp[order - log[a]]

    if zech is None:
        return kernel[0], kernel[1], kernel[2], mul, inv

    def add(a, b):
        if not a or not b:
            return a or b
        i = log[a]
        z = zech[log[b] - i]
        return 0 if z is None else exp[i + z]

    def sub(a, b):
        if not b:
            return a
        if not a:
            return exp[log[b] + half]
        i = log[a]
        z = zech[log[b] + half - i]
        return 0 if z is None else exp[i + z]

    def neg(a):
        return exp[log[a] + half] if a else 0

    return add, sub, neg, mul, inv


class GFElement:
    """Element of GF(p^n), held as its canonical code sum c_i p^i.

    c_0, ..., c_{n-1} are its coordinates over F_p in the basis 1, y, ...,
    y^(n-1); `coeffs` derives them from the code.  Codes order the field as
    `FiniteField.elements` does, and equality and hashing compare codes.
    """

    __slots__ = ("field", "_code")

    def __init__(self, field, coeffs):
        coeffs = [c % field.p for c in coeffs]
        if len(coeffs) != field.n:
            raise ValueError("coefficient vector has wrong length")
        _set_field(self, field)
        _set_code(self, _encode(coeffs, field.p))

    def __setattr__(self, *args):
        raise AttributeError("GFElement is immutable")

    @property
    def coeffs(self) -> tuple:
        """Coordinates c_0, ..., c_{n-1} over F_p."""
        return tuple(_decode(self._code, self.field.p, self.field.n))

    def __eq__(self, other):
        return (other.__class__ is GFElement and self._code == other._code
                and self.field is other.field)

    def __hash__(self):
        return hash(self._code)

    def __bool__(self):
        return self._code != 0

    def __add__(self, other):
        field = self.field
        if other.__class__ is not GFElement or other.field is not field:
            other = field.coerce(other)
        return _element(field, field.add(self._code, other._code))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, self.field.neg(self._code))

    def __sub__(self, other):
        field = self.field
        if other.__class__ is not GFElement or other.field is not field:
            other = field.coerce(other)
        return _element(field, field.sub(self._code, other._code))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not GFElement or other.field is not field:
            other = field.coerce(other)
        return _element(field, field.mul(self._code, other._code))

    __rmul__ = __mul__

    def inverse(self):
        if not self._code:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return _element(self.field, self.field.inv(self._code))

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        field = self.field
        if field.n == 1:
            return _element(field, pow(self._code, e, field.p))
        mul = field.mul
        out, base = 1, self._code
        while e:
            if e & 1:
                out = mul(out, base)
            base = mul(base, base)
            e >>= 1
        return _element(field, out)

    def int_value(self) -> int:
        """Canonical integer encoding sum c_i p^i (enumeration order)."""
        return self._code

    def __repr__(self):
        if self.field.n == 1:
            return str(self._code)
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


_new_object = object.__new__
_set_field = GFElement.field.__set__
_set_code = GFElement._code.__set__


def _element(field, code) -> GFElement:
    """The element of field with the given (reduced) code."""
    x = _new_object(GFElement)
    _set_field(x, field)
    _set_code(x, code)
    return x


class FiniteField:
    """GF(p^n); use the `GF(p, n)` factory so fields are unique objects.

    add, sub, neg, mul and inv act on element codes.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.q = p ** n
        self.characteristic = p
        self.modulus = _canonical_modulus(p, n)
        if n == 1:
            ops = _prime_ops(p)
        elif p == 2:
            ops = _binary_ops(n, self.modulus)
        else:
            ops = _digit_ops(p, n, self.modulus)
        if n > 1 and self.q <= _TABLE_MAX_Q:
            ops = _table_ops(p, n, ops)
        self.add, self.sub, self.neg, self.mul, self.inv = ops
        self.zero = _element(self, 0)
        self.one = _element(self, 1)

    def coerce(self, x):
        if x.__class__ is GFElement:
            if x.field is self:
                return x
            if x.field.p == self.p and x.field.n == 1:
                return _element(self, x._code)
            raise ValueError(f"cannot coerce element of {x.field} into {self}")
        if isinstance(x, int):
            return _element(self, x % self.p)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in GF")
            return _element(self, x.numerator * pow(den, -1, self.p) % self.p)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def element(self, coeffs):
        coeffs = list(coeffs)
        return GFElement(self, coeffs + [0] * (self.n - len(coeffs)))

    def generator(self):
        """Class of y (equals 1 when n = 1)."""
        return _element(self, self.p if self.n > 1 else 1)

    def elements(self):
        """All q elements in canonical (integer-encoding) order."""
        for code in range(self.q):
            yield _element(self, code)

    def elem_key(self, c):
        return c._code

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
    return first_root(Poly(big, small.modulus))


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
# linear algebra over a finite field


def row_reduce(rows) -> dict:
    """Bring rows (lists of field elements) to reduced row echelon form.

    Works in place; returns {pivot column: row index}, the pivot rows
    leading the list in column order.
    """
    cols = len(rows[0]) if rows else 0
    piv_of_col = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fct = rows[i][c]
                rows[i] = [a - fct * b for a, b in zip(rows[i], rows[r])]
        piv_of_col[c] = r
        r += 1
    return piv_of_col


def _nullspace(mat, field):
    """Basis of the right nullspace of mat over a finite field."""
    m = [row[:] for row in mat]
    piv_of_col = row_reduce(m)
    basis = []
    for free in range(len(mat[0]) if mat else 0):
        if free in piv_of_col:
            continue
        v = [field.zero] * len(mat[0])
        v[free] = field.one
        for c, row in piv_of_col.items():
            v[c] = -m[row][free]
        basis.append(v)
    return basis


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

    c = poly_gcd(f, f.derivative())
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


def _splitting_poly(b: Poly, f: Poly) -> Poly:
    """A polynomial whose gcd with f collects about half the factors of f.

    On each factor of f, b is a constant c of F_q.  For odd q this is
    b^((q-1)/2) - 1, which vanishes where c is a nonzero square; for q = 2^n
    it is the trace sum_{i<n} b^(2^i), which vanishes where Tr(c) = 0.
    """
    field = f.field
    if field.p != 2:
        return _powmod(b, (field.q - 1) // 2, f) - Poly.one(field)
    power = trace = b
    for _ in range(field.n - 1):
        power = (power * power) % f
        trace = trace + power
    return trace


def _equal_degree_split(f: Poly, kernel, rng):
    """Irreducible factors of f, each element of kernel reduced mod f.

    kernel spans the Berlekamp algebra of a multiple of f, so its images
    mod f span that of f: f is irreducible exactly when they are all
    constants.
    """
    kernel = [b % f for b in kernel]
    if all(b.degree <= 0 for b in kernel):
        return [f]
    field = f.field
    while True:
        b = Poly.zero(field)
        for v in kernel:
            b = b + v * _element(field, rng.randrange(field.q))
        g = poly_gcd(f, _splitting_poly(b, f))
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, kernel, rng)
                    + _equal_degree_split(f // g, kernel, rng))


def _berlekamp_irreducibles(f: Poly):
    """Irreducible monic factors of a monic squarefree f over GF(q)."""
    if f.degree <= 1:
        return [f]
    return _equal_degree_split(f, _frobenius_kernel(f),
                               random.Random(_SPLIT_SEED))


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


def first_root(f: Poly) -> GFElement:
    """The first root of f in its coefficient field, in canonical order."""
    field = f.field
    add, mul = field.add, field.mul
    codes = [c._code for c in reversed(f.coeffs)]
    for cand in field.elements():
        x, acc = cand._code, 0
        for c in codes:
            acc = add(mul(acc, x), c)
        if not acc:
            return cand
    raise ValueError(f"{f!r} has no root in {field!r}")
