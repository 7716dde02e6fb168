"""Dense univariate polynomials over an arbitrary coefficient field.

The coefficient domain is any object with attributes `zero` and `one`,
methods `coerce(x)` and `elem_key(c)` (a canonical sort key used to order
polynomials deterministically), whose elements support +, -, *, / and ==.
`QQ` is the adapter for Q; finite fields live in `gf`, rational function
fields in `funcfield`.

An element of QQ is an `int` when it is integral and a `Fraction`
otherwise, so integral polynomials run on plain ints.  Since `int / int` is
a float, two field elements are divided only as `a * (field.one / b)`:
`QQ.one` is `Fraction(1)`, and the quotient stays exact on every field.

Coefficients are stored in ascending order without trailing zeros; the zero
polynomial has degree -1.  Division by a monic polynomial multiplies by no
inverse, so dividing an integral polynomial by a monic integral one never
leaves the integers.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """Domain adapter for Q: an element is an int when it is integral and a
    Fraction otherwise.

    `one` is `Fraction(1)`, so `field.one / b` is the exact inverse of b;
    divide field elements only that way, never as `a / b`.
    """

    zero = 0
    one = Fraction(1)
    characteristic = 0

    def coerce(self, x):
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def elem_key(self, c):
        return c

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Poly:
    """Immutable dense polynomial; `coeffs[i]` multiplies x^i."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        other = self._coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        other = self._coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.field.coerce(other)
            return Poly(self.field, [a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == self.field.zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b != self.field.zero:
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def _coerce_poly(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        return Poly.constant(self.field, self.field.coerce(other))

    def __divmod__(self, other):
        other = self._coerce_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        monic = other.is_monic()
        inv_lead = None if monic else self.field.one / other.leading()
        quot = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if not monic:
                c = c * inv_lead
            quot[k] = c
            if c != self.field.zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.field, quot), Poly(self.field, rem[:other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self):
        if self.is_zero():
            return self
        if self.is_monic():
            return self
        inv = self.field.one / self.leading()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        return Poly(self.field,
                    [self.field.coerce(i) * c
                     for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, point):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(self.field, c)
        return acc

    def map_coeffs(self, fn, new_field) -> "Poly":
        return Poly(new_field, [fn(c) for c in self.coeffs])

    def sort_key(self):
        return (self.degree,
                tuple(self.field.elem_key(c) for c in self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != self.field.one else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != self.field.one else f"x^{i}")
        return " + ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a

