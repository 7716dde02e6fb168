"""Dense univariate polynomials over a field adapter, on one list kernel.

A field adapter (`QQ` here, finite fields in `gf`, rational function
fields in `funcfield`) is an object with the attributes `zero`, `one` and
`characteristic` and the methods `coerce(x)` (a value from outside, such
as an int, a Fraction or a printable wrapper, into an element),
`add(a, b)`, `sub(a, b)`, `neg(a)`, `mul(a, b)`, `inv(a)`,
and `render(a)` (the text of an element).  `coerce` is the one way into a
field, also for a k[t] polynomial going into k(t).  Elements need not
carry their own arithmetic: all of it goes through these ops, and an
element only has to be hashable and false exactly when it is zero.

An element of QQ is an `int` when it is integral and a `Fraction`
otherwise, so integral polynomials run on plain ints; `QQ.inv` gives an
int where the inverse is integral.  Since `int / int` is a float, two field
elements are divided only as `F.mul(a, F.inv(b))`.

A polynomial is a tuple of elements in ascending order without trailing
zeros; the zero polynomial has degree -1.  `Poly` stores the elements it
is given as they are: it never coerces, so the codes of a finite field are
never reduced again as integers.  Its arithmetic is the kernel at the end
of this module, on lists of elements, which reads the field's ops once per
operation: its one a + c*b loop, `_axpy`, skips the products when c is one,
and its one division loop, `_preduce`, reduces a list in place.
Its one Horner loop is `Poly.__call__`, which `gf.embed` also calls.
Division by a monic polynomial multiplies by no inverse, so dividing an
integral polynomial by a monic integral one never leaves the integers.
This module also owns, for every field adapter, exponentiation (`_power`,
square-and-multiply on any product) and the term printer (`render_terms`):
`Poly` prints in x, k(t) in t and GF(p^n) in y.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial


class RationalField:
    """Domain adapter for Q: an element is an int when it is integral and a
    Fraction otherwise; the ops are Python's operators."""

    zero = 0
    one = 1
    characteristic = 0
    add = operator.add
    sub = operator.sub
    neg = operator.neg
    mul = operator.mul
    render = str

    def coerce(self, x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    @staticmethod
    def inv(a):
        """1/a, an int when it is integral."""
        x = Fraction(1) / a
        return x.numerator if x.denominator == 1 else x

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Poly:
    """Immutable dense polynomial; `coeffs[i]` multiplies x^i."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        """coeffs: elements of field, lowest degree first."""
        coeffs = list(coeffs)
        _set_field(self, field)
        _set_coeffs(self, tuple(_trim(coeffs)))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field):
        return _poly(field, [])

    @classmethod
    def one(cls, field):
        return _poly(field, [field.one])

    @classmethod
    def x(cls, field):
        return _poly(field, [field.zero, field.one])

    @classmethod
    def constant(cls, field, c):
        """The constant polynomial c, c an element of field."""
        return _poly(field, [c] if c else [])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

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
        return hash((self.field, self.coeffs))

    def _operand(self, other):
        """Coefficient list of a polynomial or an element of the field."""
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other.coeffs
        return (other,) if other else ()

    def __add__(self, other):
        F = self.field
        return _poly(F, _axpy(F, self.coeffs, F.one, self._operand(other)))

    def __sub__(self, other):
        F = self.field
        return _poly(F, _axpy(F, self.coeffs, F.neg(F.one),
                              self._operand(other)))

    def __neg__(self):
        neg = self.field.neg
        return _poly(self.field, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            return _poly(self.field,
                         _pmul(self.field, self.coeffs,
                               self._operand(other)))
        return _poly(self.field, _axpy(self.field, [], other, self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        b = self._operand(other)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _pdivmod(self.field, self.coeffs, b)
        return _poly(self.field, q), _poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        F = self.field
        return _poly(F, _power(partial(_pmul, F), [F.one], self.coeffs, n))

    def monic(self):
        return _poly(self.field, _monic(self.field, self.coeffs))

    def derivative(self):
        return _poly(self.field, _derivative(self.field, self.coeffs))

    def __call__(self, point):
        """Value at point, an element of the field."""
        add, mul = self.field.add, self.field.mul
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = add(mul(acc, point), c)
        return acc

    def map_coeffs(self, fn, new_field) -> "Poly":
        """fn applied to each coefficient, fn mapping into new_field."""
        return Poly(new_field, [fn(c) for c in self.coeffs])

    def __repr__(self):
        F = self.field
        return render_terms(self.coeffs, "x", F.render, F.one)


_new_poly = object.__new__
_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__


def _poly(field, coeffs) -> Poly:
    """The Poly of a kernel result: elements of field, trimmed."""
    out = _new_poly(Poly)
    _set_field(out, field)
    _set_coeffs(out, tuple(coeffs))
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    return _poly(a.field, _pgcd(a.field, a.coeffs, a._operand(b)))


def power(F, a, e: int):
    """a^e for an element a of the field F; a negative e inverts a first."""
    if e < 0:
        a, e = F.inv(a), -e
    return _power(F.mul, F.one, a, e)


def _power(mul, one, a, e):
    """a^e for e >= 0 by left-to-right square-and-multiply with the product
    mul, one for e = 0: bitlen(e) - 1 squarings, popcount(e) - 1 products."""
    if not e:
        return one
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


def render_terms(coeffs, var, render=str, one=1) -> str:
    """The text of sum coeffs[i] var^i, lowest degree first.

    Zero terms and unit coefficients are left out; "0" if no term is left.
    """
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(render(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            parts.append(mono if c == one else f"{render(c)}*{mono}")
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# the kernel: polynomials over a field F as lists (or tuples) of elements,
# lowest degree first, without trailing zeros ([] is zero).  Each function
# reads F's ops once and touches no Poly; results are new lists, but for
# `_preduce`, the one division loop, which reduces its list in place: a
# Euclid step or a remainder after a product then copies nothing.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _axpy(F, a, c, b):
    """a + c*b for an element c, with no product when c is F.one."""
    if not c:
        return list(a)
    add, mul = F.add, F.mul
    scale = c != F.one
    out = list(a)
    out += [F.zero] * (len(b) - len(a))
    for i, y in enumerate(b):
        if y:
            if scale:
                y = mul(c, y)
            x = out[i]
            out[i] = add(x, y) if x else y
    return _trim(out)


def _monic(F, a):
    return list(a) if not a or a[-1] == F.one else _axpy(F, [], F.inv(a[-1]),
                                                         a)


def _pmul(F, a, b):
    """a * b."""
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    y = mul(x, y)
                    z = out[j]
                    out[j] = add(z, y) if z else y
    return out


def _pdivmod(F, a, b):
    """(quotient, remainder) of a by b != []."""
    r = list(a)
    return _preduce(F, r, b), r


def _preduce(F, r, b):
    """Reduce the list r mod b != [] in place; return the quotient."""
    dq, db = len(r) - len(b), len(b) - 1
    if dq < 0:
        return []
    sub, neg, mul = F.sub, F.neg, F.mul
    inv = None if b[-1] == F.one else F.inv(b[-1])
    q = [F.zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = r[k + db]
        if c:
            if inv is not None:
                c = mul(c, inv)
            q[k] = c
            for j in range(db):
                if b[j]:
                    y = mul(c, b[j])
                    x = r[k + j]
                    r[k + j] = sub(x, y) if x else neg(y)
    del r[db:]
    _trim(r)
    return q


def _pgcd(F, a, b):
    """Monic gcd of a and b by the Euclidean algorithm, on one copy of each."""
    a, b = list(a), list(b)
    while b:
        _preduce(F, a, b)
        a, b = b, a
    return _monic(F, a)


def _derivative(F, a):
    """d/dx of a; the integer factor i is reduced mod the characteristic."""
    p, mul = F.characteristic, F.mul
    return _trim([mul(i % p if p else i, c) for i, c in enumerate(a)][1:])
