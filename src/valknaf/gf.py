"""Finite fields GF(p^n) with a canonical modulus, and factorization.

GF(p^n) is realized as F_p[y]/(m(y)) where m is the first monic irreducible
polynomial of degree n in the enumeration that counts coefficient vectors
(c_0, ..., c_{n-1}) as base-p integers; irreducibility is Ben-Or's test
over GF(p), the first step of distinct-degree splitting.  Fields are
cached, so equal parameters give the identical object (`GF(p, 1)` is
`GF(p)`); a field built apart is equal, and so are its elements; only the
prime field's build tests p.

An element of GF(p^n) is one int, its canonical code sum c_i p^i, and the
field's ops `add`, `sub`, `neg`, `mul` and `inv` act on codes (Cohen, GTM
138): plain arithmetic mod p in GF(p); in GF(p^n), n > 1, XOR and a
carry-less shift-and-reduce product for p = 2, and digitwise sums and a
schoolbook digit product reduced by m for odd p, with inverses a^(q-2)
by `poly`'s square-and-multiply.
Extension fields of at most `_TABLE_MAX_Q` elements replace these kernels
by tables built when the field is made: a log/antilog pair for a primitive
element g, so a product is one addition of logs, and for odd p the Zech
logarithms log(1 + g^k), so a sum is one too.  A build tabulates two
F_p-linear maps on codes from their images of the basis 1, y, ..., y^(n-1),
n kernel products each: the Frobenius x -> x^p, through which the test of
a candidate g takes each power digit by digit in base p, and x -> x g,
through which the powers of g are stepped.  Each map is two small spans,
of codes combined by XOR for p = 2 and of digit vectors for odd p, in
place of one kernel product per element.
`zero` and `one` are 0 and 1, and `coerce` turns an int or a Fraction
(reduced mod p) or a `GFElement` into a code; a code is never coerced
again, since that would reduce a code of p or more as an integer.
`GFElement` is only the printable wrapper that callers of the public API
(`element`) and its own operators build, through its one constructor;
`render`, `poly`'s term printer in y, is the one text of a code.

A polynomial over GF(q) is a `Poly` of codes or, inside this module, the
bare list of codes, lowest degree first and without trailing zeros; `poly`'s
kernel (`_axpy`, `_pmul`, `_pdivmod`, `_pgcd`) does all of its arithmetic
on the field's ops, and `_ppowmod` adds powers mod a polynomial through
`poly`'s square-and-multiply, reducing each product in place by the
kernel's one division loop (`_preduce`).  `_frobenius_mod`, the one
Frobenius kernel, makes a^p mod f by `frob` on the coefficients spread p
apart and one `_preduce`, or by `_ppowmod` where that is cheaper (large p).
Factorization is Cantor-Zassenhaus (a linear polynomial is its own factor,
with no gcd): each squarefree part is split by distinct degrees, through
gcds with x^(q^d) - x, each x^(q^d) n = log_p q Frobenius steps from the
last, and each product of factors of one degree d by the trace splitter,
one for every p, on random polynomials drawn from a generator with a
constant seed, so results and operation counts repeat from run to run; the
generator is made at the first equal-degree split, which most inputs never
reach.
Root search (`first_root`) checks x^q = x once, as T^p = T through
`_frobenius_mod` for the same trace T at d = 1 on c x + a, isolates one
root and returns the least code of its orbit, walked by `frob`; its cost
is polynomial in the degree and in log q, and nothing in the engine
enumerates the elements of a field.  Embeddings and residue
extensions share its roots through one cache, `_embedding_root`; an
embedding evaluates an element's coordinates there by `Poly.__call__`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from operator import pos, xor

from .numtheory import isprime, primefactors
from .poly import (Poly, _axpy, _derivative, _monic, _pdivmod, _pgcd, _pmul,
                   _power, _preduce, _trim, render_terms)

# constant seed of the equal-degree splitting; any value gives the same
# factors, this one fixes the operation counts
_SPLIT_SEED = 0

# extension fields up to this size compute through log/antilog and Zech
# tables; GF(2^13) is the largest field the benchmark workloads build.  The
# tables of GF(3^8) or GF(2^13) take about 4.5 and 0.6 ms and 0.7 MB to
# build (2-core x86_64, Python 3.11), those of GF(3^10) about 24 ms and
# 6 MB, held as long as the cached field, so larger fields keep the kernels
_TABLE_MAX_Q = 2 ** 13


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
    F = GF(p)
    # codes below p are the binomials x^n + c; none is irreducible when a
    # prime r | n does not divide p - 1, or when 4 | n and p = 3 mod 4
    # (Capelli; Lang, Algebra VI 9.1), and then the search starts at x^n + x,
    # the block of about p/n irreducibles, so a build is polynomial in log p
    no_binomial = (any((p - 1) % r for r in primefactors(n))
                   or (n % 4 == 0 and p % 4 == 3))
    # the loop runs to the first irreducible, past the binomials when none
    # of them is one, never to p^n; test_field_builds_are_polynomial_in_log_p
    # times it for p up to 2^61 - 1
    for k in range(p if no_binomial else 0, p ** n):
        m = _decode(k, p, n) + [1]
        if next(_distinct_degree(F, m))[1] == n:
            return tuple(m)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# arithmetic on codes: (add, sub, neg, mul, inv) for each kind of field,
# and the Frobenius a -> a^p beside them in a table field


def _prime_ops(p):
    return ((lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p),
            (lambda a: -a % p), (lambda a, b: a * b % p),
            (lambda a: pow(a, -1, p)))


def _binary_ops(n, modulus):
    """GF(2^n): a code is a bit mask of F_2[y], m(y) the mask `mod`."""
    mod = _encode(modulus, 2)
    top = 1 << n

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

    return xor, xor, pos, mul, (lambda a: _power(mul, 1, a, top - 2))


def _digit_ops(p, n, modulus):
    """GF(p^n), p odd: codes decoded to digit lists, m(y) the monic modulus."""
    m = modulus[:n]

    def add(a, b):
        return _encode([(x + y) % p for x, y in
                        zip(_decode(a, p, n), _decode(b, p, n))], p)

    def sub(a, b):
        return _encode([(x - y) % p for x, y in
                        zip(_decode(a, p, n), _decode(b, p, n))], p)

    def neg(a):
        return _encode([-x % p for x in _decode(a, p, n)], p)

    def mul(a, b):
        # schoolbook product of the digits, reduced mod p only at the end;
        # then c y^k = -c (m(y) - y^n) y^(k-n) from the top down
        ys = _decode(b, p, n)
        out = [0] * (2 * n - 1)
        for i, x in enumerate(_decode(a, p, n)):
            if x:
                for j, y in enumerate(ys):
                    out[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            c = out[k] % p
            if c:
                for j, y in enumerate(m, k - n):
                    out[j] -= c * y
        return _encode([c % p for c in out[:n]], p)

    return add, sub, neg, mul, (lambda a: _power(mul, 1, a, p ** n - 2))


def _log_tables(p, n, mul):
    """(g, exp, log, zech) for GF(p^n), stepping x -> x g as a linear map.

    g is the smallest code of order q - 1.  exp[k] = g^k for 0 <= k < 2(q-1),
    so a sum of two logs needs no reduction; log[a] is the k < q - 1 with
    g^k = a (log[0] is unused).  For odd p, zech[k] = log(1 + g^k) for
    0 <= k < 2(q-1), and None at k = (q-1)/2 (and its repeat), where g^k = -1
    and the sum vanishes.  For p = 2 zech is None: addition is XOR.

    The Frobenius x -> x^p and x -> x g are F_p-linear on codes, so `linear`
    tabulates each from its images of the basis 1, y, ..., y^(n-1), n kernel
    products: with x = a + p^h b, h = n // 2, the image of x is the sum of
    the images of a and of p^h b, and two spans hold these for every
    a < p^h and b < p^(n-h).  For p = 2 the spans hold codes and the sum is
    one XOR.  For odd p they hold digits packed one per w-bit lane of an
    int, w wide enough for a sum of two digits; adding two entries adds
    lanewise, and the low h and high n - h lanes of the sum map back to a
    code through two dicts that reduce each lane mod p.  A candidate c has
    order q - 1 unless c^e = 1 for e = (q-1)/r, r a prime factor of q - 1;
    c^e is the product of the conjugates c^(p^i), from the Frobenius
    table, each raised to the base-p digit e_i of e, so the kernel makes
    only the digit powers and their product.  The powers of g are then
    stepped through the table of x -> x g without the kernel.
    """
    q = p ** n
    order = q - 1
    h = n // 2
    lo = p ** h
    if p == 2:
        m = lo - 1

        def span(images):
            # the XOR of images[i] over the bits i of each a < 2^len(images)
            out = [0]
            for c in images:
                out += [t ^ c for t in out]
            return out

        def image(tables, x):
            return tables[0][x & m] ^ tables[1][x >> h]
    else:
        w = (2 * p - 2).bit_length()
        shift = w * h
        mask = (1 << shift) - 1

        def lanes(c):
            return sum(d << w * i for i, d in enumerate(_decode(c, p, n)))

        def codes(k, unit):
            # every k lanes of values 0..2p-2 -> unit times their code mod p
            out = {0: 0}
            for i in range(k):
                out = {key + (d << w * i): c + d % p * unit * p ** i
                       for key, c in out.items() for d in range(2 * p - 1)}
            return out

        low, high = codes(h, 1), codes(n - h, lo)

        def code(s):
            # the code of the lanes s, each reduced mod p
            return low[s & mask] + high[s >> shift]

        def span(images):
            # the lanes of sum a_i images[i] over the digits a_i of each
            # a < p^len(images), one multiple of an image at a time
            out = [0]
            for c in images:
                v = lanes(c)
                block = out
                for _ in range(p - 1):
                    block = [lanes(code(t + v)) for t in block]
                    out += block
            return out

        def image(tables, x):
            b, a = divmod(x, lo)
            return code(tables[0][a] + tables[1][b])

    def linear(images):
        # the two spans of the F_p-linear map with y^i -> images[i]
        return span(images[:h]), span(images[h:])

    frobenius = linear([_power(mul, 1, p ** i, p) for i in range(n)])
    cofactors = [_decode(order // r, p, n) for r in primefactors(order)]

    def primitive(c):
        conjugates = [c]
        for _ in range(n - 1):
            conjugates.append(image(frobenius, conjugates[-1]))
        for digits in cofactors:
            power = 1
            for x, d in zip(conjugates, digits):
                if d:
                    x = _power(mul, 1, x, d)
                    power = x if power == 1 else mul(power, x)
            if power == 1:
                return False
        return True

    # a constant lies in F_p, of order dividing p - 1 < q - 1; the search
    # runs only when a table field is built, so over fewer than
    # _TABLE_MAX_Q candidates
    g = next(c for c in range(p, q) if primitive(c))
    low_g, high_g = linear([mul(p ** i, g) for i in range(n)])
    exp = [1] * order
    log = [0] * q
    x = 1
    # the steps inline `image`, which is called once per conjugate
    if p == 2:
        for k in range(1, order):
            x = low_g[x & m] ^ high_g[x >> h]
            exp[k] = x
            log[x] = k
        return g, exp + exp, log, None
    for k in range(1, order):
        b, a = divmod(x, lo)
        s = low_g[a] + high_g[b]
        x = low[s & mask] + high[s >> shift]
        exp[k] = x
        log[x] = k
    exp += exp
    # 1 + c adds 1 to the lowest digit of the code c
    zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp[:order]]
    zech[order // 2] = None
    return g, exp, log, zech + zech


def _table_ops(p, n, kernel):
    """GF(p^n) on codes through the log/antilog and Zech tables of kernel.

    Sums of two logs index exp directly; differences of logs index zech
    with Python's negative indexing, which wraps them mod q - 1 because
    zech repeats with that period.  The Frobenius a^p is one lookup.
    """
    _, exp, log, zech = _log_tables(p, n, kernel[3])
    order = p ** n - 1
    half = order // 2

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        return exp[order - log[a]]

    def frob(a):
        return exp[log[a] * p % order] if a else 0

    if zech is None:
        return kernel[0], kernel[1], kernel[2], mul, inv, frob

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

    return add, sub, neg, mul, inv, frob


class GFElement:
    """Printable wrapper of an element of GF(p^n): its field and its code.

    The engine computes on codes alone; a GFElement is what a caller of the
    public API may build to name an element beyond the prime field
    (`FiniteField.element`), and `coerce` turns it into its code.  Its
    operators compute through the field's ops on codes.  c_0, ..., c_{n-1}
    are its coordinates over F_p in the basis 1, y, ..., y^(n-1); `coeffs`
    derives them from the code.  Equality compares codes and fields.
    """

    __slots__ = ("field", "_code")

    def __init__(self, field, coeffs):
        coeffs = [c % field.p for c in coeffs]
        if len(coeffs) != field.n:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_code", _encode(coeffs, field.p))

    def __setattr__(self, *args):
        raise AttributeError("GFElement is immutable")

    @property
    def coeffs(self) -> tuple:
        """Coordinates c_0, ..., c_{n-1} over F_p."""
        return tuple(self.field.coords(self._code))

    def __eq__(self, other):
        return (other.__class__ is GFElement and self._code == other._code
                and self.field == other.field)

    def __hash__(self):
        return hash(self._code)

    def __bool__(self):
        return self._code != 0

    def __add__(self, other):
        return self._wrap(self.field.add(self._code, self.field.coerce(other)))

    def __neg__(self):
        return self._wrap(self.field.neg(self._code))

    def __sub__(self, other):
        return self._wrap(self.field.sub(self._code, self.field.coerce(other)))

    def __mul__(self, other):
        return self._wrap(self.field.mul(self._code, self.field.coerce(other)))

    def inverse(self):
        return self._wrap(self.field.inv(self._code))

    def _wrap(self, code):
        return GFElement(self.field, self.field.coords(code))

    def __repr__(self):
        return self.field.render(self._code)


class FiniteField:
    """GF(p^n); use the `GF(p, n)` factory so fields are unique objects.

    An element is its int code; add, sub, neg, mul and inv act on codes,
    and so does frob, the Frobenius a -> a^p: the identity on GF(p), one
    lookup in a table field and square-and-multiply otherwise.  `coerce`
    makes a code from an int, a Fraction or a `GFElement`, and `render`
    prints one.
    """

    zero = 0
    one = 1

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
        else:
            mul = ops[3]
            ops += ((lambda a: _power(mul, 1, a, p)) if n > 1 else _identity,)
        self.add, self.sub, self.neg, self.mul, inv, self.frob = ops

        def checked_inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return inv(a)

        self.inv = checked_inv

    def coerce(self, x):
        """The code of an int or a Fraction (mod p) or of a GFElement."""
        if isinstance(x, int):
            return x % self.p
        if x.__class__ is GFElement:
            if x.field.p == self.p and x.field.n in (1, self.n):
                return x._code
            raise ValueError(f"cannot coerce element of {x.field} into {self}")
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in GF")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def coords(self, c) -> list:
        """The n coordinates of the code c over F_p, lowest first."""
        return _decode(c, self.p, self.n)

    def from_coords(self, coords) -> int:
        """The code of the element with the given coordinates over F_p."""
        return _encode(coords, self.p)

    def element(self, coeffs) -> GFElement:
        """The wrapper of the element with coordinates coeffs (padded)."""
        coeffs = list(coeffs)
        return GFElement(self, coeffs + [0] * (self.n - len(coeffs)))

    def elements(self):
        """All q element codes, in canonical (increasing) order.

        No engine path calls this; tests and the benchmark tracer's count
        of enumerated elements do.
        """
        yield from range(self.q)

    def render(self, c) -> str:
        if self.n == 1:
            return str(c)
        return f"({render_terms(self.coords(c), 'y')})"

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.n == other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"GF({self.p})" if self.n == 1 else f"GF({self.p}^{self.n})"


@lru_cache(maxsize=None)
def GF(p: int, n: int | None = None) -> FiniteField:
    """The field of p^n elements, n = 1 when not given.

    Only `GF(p)` tests p: `GF(p, n)` asks it for the prime field, which the
    modulus search needs, and `GF(p, 1)` is that same object.  So while the
    cache holds a field, p is not tested again, and `raminv` asks `GF(p)`
    whether a residue characteristic is prime.
    """
    if n is None:
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        return FiniteField(p, 1)
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    prime_field = GF(p)
    return prime_field if n == 1 else FiniteField(p, n)


@lru_cache(maxsize=None)
def _embedding_root(big: FiniteField, coeffs: tuple, over: int) -> int:
    """`first_root` of the polynomial with the codes coeffs over big.

    Cached: embeddings and residue extensions adjoin the same roots again
    and again, and a root search costs more than a small field's scan.
    """
    return first_root(Poly(big, coeffs), over)


def embed(small: FiniteField, big: FiniteField):
    """The canonical embedding GF(p^a) -> GF(p^ab) on codes, as a callable.

    The generator y of small goes to the least root r of small's modulus
    in big, and sum c_i y^i to `Poly(big, c)(r)`.  The prime field has the
    same codes in every extension, so its embedding is the identity.
    """
    if small is big:
        return _identity
    if small.p != big.p or big.n % small.n != 0:
        raise ValueError(f"no embedding of {small} into {big}")
    if small.n == 1:
        return _identity
    root = _embedding_root(big, small.modulus, 1)
    return lambda x: Poly(big, small.coords(x))(root)


def _identity(x):
    return x


def _ppowmod(F, a, e, m):
    """a^e mod m for code lists a and m."""

    def mulmod(b, c):
        r = _pmul(F, b, c)
        _preduce(F, r, m)
        return r

    return _power(mulmod, [1], _pdivmod(F, a, m)[1], e)


def _frobenius_mod(F, a, f):
    """a^p mod f for code lists a and f.

    The p-th power is additive in characteristic p: `frob` on the
    coefficients of a, spread p apart, and one reduction by f of about
    (len(a) - 1) p + 1 - deg f rows of deg f products.  Where the
    bitlen(p) + popcount(p) - 2 products mod f of square-and-multiply, up
    to 2 deg f^2 coefficient products each, are fewer (large p), `_ppowmod`
    makes a^p.
    """
    p, m = F.p, len(f) - 1
    size = (len(a) - 1) * p + 1
    if size - m > 2 * m * (p.bit_length() + p.bit_count() - 2):
        return _ppowmod(F, a, p, f)
    out = [0] * size
    out[::p] = map(F.frob, a)
    _preduce(F, out, f)
    return out


# ---------------------------------------------------------------------------
# factorization over GF(q)


def _squarefree(F, f):
    """[(g, m)] with monic f = prod g^m, the g monic squarefree coprime.

    Characteristic-p aware: the inseparable part is pulled out through
    p-th roots (c -> c^(q/p), n - 1 `frob` steps, on the coefficients of
    x^0, x^p, ...), so inputs like h(x^p) are handled exactly.
    """
    out = {}
    c = _pgcd(F, f, _derivative(F, f))
    if len(c) == 1:
        # gcd(f, f') = 1, most inputs: f is squarefree (or constant)
        return [(list(f), 1)] if len(f) > 1 else []
    w = _pdivmod(F, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(F, w, c)
        g = _pdivmod(F, w, y)[0]
        if len(g) > 1:
            out[i] = g
        w = y
        c = _pdivmod(F, c, y)[0]
        i += 1
    if len(c) > 1:
        root = c[::F.p]
        for _ in range(F.n - 1):
            root = list(map(F.frob, root))
        # the Yun loop gives the m prime to p, the p-th root the multiples
        out.update((m * F.p, g) for g, m in _squarefree(F, root))
    return [(g, m) for m, g in sorted(out.items())]


def _distinct_degree(F, f):
    """(g, d) for each degree d of an irreducible factor of monic f, rising.

    g = gcd(f, x^(q^d) - x) of f with the factors found so far divided out,
    so for squarefree f it is the product of the factors of degree d.  The
    search tries d while 2d <= deg f; what is left is irreducible and comes
    last.  The first pair has d = deg f exactly when f is irreducible, since
    a reducible f has a factor of degree <= deg f / 2 (Ben-Or's test).
    x^(q^d) is x^(q^(d-1)) taken through n = log_p q Frobenius steps.
    """
    h = [0, 1]
    d = 1
    while 2 * d < len(f):
        for _ in range(F.n):
            h = _frobenius_mod(F, h, f)
        g = _pgcd(F, f, _axpy(F, h, F.neg(1), [0, 1]))
        if len(g) > 1:
            yield g, d
            f = _pdivmod(F, f, g)[0]
        d += 1
    if len(f) > 1:
        yield f, len(f) - 1


def _equal_degree(F, f, d, rng):
    """The irreducible factors of f, a product of distinct ones of degree d.

    f is split by its gcd with `_splitting_poly` of the trace of a random b
    of degree below deg f (Cantor-Zassenhaus), and both parts again.
    """
    if len(f) - 1 == d:
        return [f]
    while True:
        b = _trim([rng.randrange(F.q) for _ in range(len(f) - 1)])
        trace = _trace(F, b, f, F.n * d)
        g = _pgcd(F, f, _splitting_poly(F, trace, f))
        if 1 < len(g) < len(f):
            return (_equal_degree(F, g, d, rng)
                    + _equal_degree(F, _pdivmod(F, f, g)[0], d, rng))


def _trace(F, b, f, k):
    """sum_{i<k} b^(p^i) mod f, by k - 1 Frobenius steps.

    For f a product of distinct irreducibles of degree d over GF(q) and
    k = log_p(q^d), it is b's absolute trace on each of them: on a factor
    where b is c in GF(q^d), it is Tr(c), an element of GF(p).
    """
    power = trace = b
    for _ in range(k - 1):
        power = _frobenius_mod(F, power, f)
        trace = _axpy(F, trace, 1, power)
    return trace


def _splitting_poly(F, trace, f):
    """A polynomial whose gcd with f collects about half the factors of f.

    trace is `_trace` of some b: on each factor of f, the absolute trace t
    in GF(p) of b there.  For p = 2 this is trace itself, which vanishes
    where t = 0; for odd p it is trace^((p-1)/2) - 1, which vanishes where
    t is a nonzero square mod p.
    """
    if F.p == 2:
        return trace
    return _axpy(F, _ppowmod(F, trace, (F.p - 1) // 2, f), F.neg(1), [1])


def factor(f: Poly):
    """Monic irreducible factors with multiplicity, deterministic order.

    Returns (lead, [(g, m), ...]) sorted by (degree, coefficients);
    lead is the leading coefficient of f.  A linear f is its own factor.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    F = f.field
    lead = f.leading()
    if f.degree == 1:
        return lead, [(f.monic(), 1)]
    rng = None
    pairs = []
    for g, m in _squarefree(F, _monic(F, f.coeffs)):
        for h, d in _distinct_degree(F, g):
            if len(h) - 1 > d:  # the first split makes the generator
                rng = rng or random.Random(_SPLIT_SEED)
            pairs += [(e, m) for e in _equal_degree(F, h, d, rng)]
    pairs.sort(key=lambda t: (len(t[0]), t[0]))
    return lead, [(Poly(F, g), m) for g, m in pairs]


def first_root(f: Poly, over: int) -> int:
    """The least code of a root of f, for f irreducible over GF(p^over).

    Contract: the coefficients of f lie in the subfield GF(p^over) of
    F = f.field, f is irreducible over it, and f splits in F.  Its roots are
    then one orbit under x -> x^(p^over).  Equal-degree splitting by the
    trace isolates one of them, keeping the smaller gcd factor at each
    split; b = c x + a is drawn from all of F with c != 0 (an element of
    GF(p^over) never separates two conjugate roots, and b = x + a never
    separates two roots of equal trace).  The orbit is walked by `frob`,
    and its least code is the answer.  The first split checks b^q = b,
    i.e. x^q = x mod f, which holds exactly when f has deg f distinct roots
    in F; otherwise ValueError is raised.  It reads b^q off the trace T of
    b through `_frobenius_mod`: T^p = T - b + b^q, so b^q = b exactly when
    T^p = T.
    """
    F = f.field
    g = _monic(F, f.coeffs)
    d = len(g) - 1
    if d < 1:
        raise ValueError(f"{f!r} is not of positive degree")
    rng = random.Random(_SPLIT_SEED)
    checked = False
    while len(g) > 2:
        b = [rng.randrange(F.q), rng.randrange(1, F.q)]
        trace = _trace(F, b, g, F.n)
        if not checked and _frobenius_mod(F, trace, g) != trace:
            raise ValueError(f"{f!r} has no {d} distinct roots in {F!r}")
        checked = True
        h = _pgcd(F, g, _splitting_poly(F, trace, g))
        if 1 < len(h) < len(g):
            rest = _pdivmod(F, g, h)[0]
            g = h if len(h) <= len(rest) else rest
    orbit = [F.neg(g[0])]
    for _ in range((d - 1) * over):
        orbit.append(F.frob(orbit[-1]))
    return min(orbit[::over])
