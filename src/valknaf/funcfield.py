"""Rational function fields k(t) over an exact constant field.

Elements are reduced fractions of `poly.Poly` values in the variable t: the
`denominator` is monic and coprime to the `numerator`, attribute names that
`int` and `Fraction` share, so code over Q and over k(t) reads both alike.
The constant field k is any domain adapter from this package (QQ or a finite
field), and the coefficients of numerator and denominator are elements of k
(ints or Fractions over Q, int codes over GF(q)); a `RatFunc` computes on
them only through `Poly`'s kernel and k's ops.  k(t) is again a domain
adapter: an element is a `RatFunc`, whose own operators are the adapter's
add, sub, neg and mul, so k(t) can serve as the coefficient field of the
polynomials split in `localsplit`.  `split_order` is the order at a prime
of Z or k[t], the stage-0 valuation of both `localsplit` bases, and hands
over the remainder mod the prime that stage-0 reduction needs.  Gcds over
k(t) run fraction-free in k[t][x], on the helpers at the end of this
module; the same helpers run gcds over Q in Z[x].
"""

from __future__ import annotations

import operator
from math import gcd, lcm

from .poly import Poly, RationalField, _trim, poly_gcd, render_terms


class RatFunc:
    """Element of k(t), stored as numerator/denominator in lowest terms."""

    __slots__ = ("parent", "numerator", "denominator")

    def __init__(self, parent, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in k(t)")
        if not num.is_zero():
            if den.degree > 0:  # a constant den is already coprime to num
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
            lead = den.leading()
            if lead != parent.base.one:
                inv = parent.base.inv(lead)
                num = num * inv
                den = den * inv
        else:
            den = Poly.one(parent.base)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    def __bool__(self):
        return not self.numerator.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            try:
                other = self.parent.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.parent is other.parent
                and self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((id(self.parent), self.numerator.coeffs,
                     self.denominator.coeffs))

    def __add__(self, other):
        other = self.parent.coerce(other)
        return RatFunc(self.parent,
                       self.numerator * other.denominator
                       + other.numerator * self.denominator,
                       self.denominator * other.denominator)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.parent, -self.numerator, self.denominator)

    def __sub__(self, other):
        return self + (-self.parent.coerce(other))

    def __rsub__(self, other):
        return self.parent.coerce(other) - self

    def __mul__(self, other):
        other = self.parent.coerce(other)
        return RatFunc(self.parent, self.numerator * other.numerator,
                       self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.parent.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero in k(t)")
        return RatFunc(self.parent, self.numerator * other.denominator,
                       self.denominator * other.numerator)

    def __rtruediv__(self, other):
        return self.parent.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return RatFunc(self.parent, self.denominator ** -e,
                           self.numerator ** -e)
        return RatFunc(self.parent, self.numerator ** e,
                       self.denominator ** e)

    def d_dt(self) -> "RatFunc":
        """Derivative with respect to t (quotient rule)."""
        num = (self.numerator.derivative() * self.denominator
               - self.numerator * self.denominator.derivative())
        return RatFunc(self.parent, num, self.denominator * self.denominator)

    def order_at(self, pi: Poly) -> int:
        """pi-adic order: multiplicity of pi in numerator minus denominator."""
        return (split_order(self.numerator, pi)[0]
                - split_order(self.denominator, pi)[0])

    def __repr__(self):
        num = _fmt_tpoly(self.numerator)
        if self.denominator.degree == 0:
            return num
        return f"({num})/({_fmt_tpoly(self.denominator)})"


def split_order(x, pi):
    """(m, r) for x != 0 and a prime pi, both ints or both polynomials in t:
    m is the order of x at pi, and r != 0 the remainder of x / pi^m mod pi.

    The division that finds m also yields r, so a caller that reduces the
    pi-free part of x mod pi divides by pi no further.
    """
    if not x:
        raise ValueError("zero has no finite order")
    m = 0
    while True:
        q, r = divmod(x, pi)
        if r:
            return m, r
        x = q
        m += 1


def _fmt_tpoly(f: Poly) -> str:
    return render_terms(f.coeffs, "t", f.field.render, f.field.one)


# -- fraction-free arithmetic in k[t][x] -----------------------------------------
#
# Gcds over k(t) are computed in k[t][x] instead, where no operation needs a
# gcd in k[t] to stay reduced, and gcds over Q likewise in Z[x].  An element
# of k[t][x] is a list of `Poly` in t, one of Z[x] a list of int, the
# coefficient of x^i at index i, without trailing zeros ([] is zero).


def clear_denominators(g: Poly) -> list:
    """L*g in k[t][x] for g over k(t), or in Z[x] for g over Q.

    L is the lcm of the denominators of g's coefficients, monic in k[t].
    """
    coeffs = g.coeffs
    if isinstance(g.field, RationalField):
        den = lcm(*(c.denominator for c in coeffs))
    else:
        # a Poly over k(t) may hold ints or k[t] polynomials among its
        # RatFuncs; coerce is the identity on a RatFunc
        coeffs = [g.field.coerce(c) for c in coeffs]
        den = Poly.one(g.field.base)
        for c in coeffs:
            if c.denominator.degree > 0:
                den = den * (c.denominator // poly_gcd(den, c.denominator))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def content(f: list):
    """Gcd of the coefficients of a nonzero f: positive in Z, monic in k[t]."""
    if isinstance(f[-1], int):
        return gcd(*f)
    coeffs = sorted((a for a in f if a), key=lambda a: a.degree)
    c = coeffs[0].monic()
    for a in coeffs[1:]:
        if c.degree == 0:
            break
        c = poly_gcd(c, a)
    return c


def primitive_part(f: list) -> list:
    """f divided by its content; f nonzero."""
    c = content(f)
    if (c == 1) if isinstance(c, int) else (c.degree == 0):
        return f
    return [a // c for a in f]


def pseudo_remainder(a: list, b: list) -> list:
    """lc(b)^k * a mod b in k[t][x] or Z[x], b nonzero, k the number of steps.

    Over k(t) or Q this is a unit multiple of a mod b, which is all a gcd
    needs.
    """
    n = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) > n:
        top = r.pop()
        shift = len(r) - n
        r = [c * lead for c in r]
        for j in range(n):
            r[shift + j] = r[shift + j] - top * b[j]
        _trim(r)
    return r


def primitive_gcd(a: list, b: list) -> list:
    """Primitive gcd in k[t][x] or Z[x] by the primitive pseudo-remainder
    sequence.

    Its x-degree is that of the gcd over k(t) or Q: every step multiplies or
    divides by nonzero elements of that field only.  a and b not both zero.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return primitive_part(a)
    a, b = primitive_part(a), primitive_part(b)
    while len(b) > 1:
        r = pseudo_remainder(a, b)
        a, b = b, primitive_part(r) if r else r
    return b or a


class FunctionField:
    """Domain adapter for k(t); elements are RatFunc values, whose own
    operators are the field's ops.

    One object per constant field, kept in `_cache`; each also holds
    `pi_adic_memo`, the pi-adic valuations `localsplit.BaseValuation.pi_adic`
    has built on it, keyed by the coefficients of pi, so clearing `_cache`
    clears them too."""

    _cache = {}
    add = operator.add
    sub = operator.sub
    neg = operator.neg
    mul = operator.mul
    render = repr

    def __new__(cls, base):
        if base in cls._cache:
            return cls._cache[base]
        obj = super().__new__(cls)
        cls._cache[base] = obj
        return obj

    def __init__(self, base):
        if getattr(self, "base", None) is not None:
            return
        self.base = base
        self.pi_adic_memo = {}
        self.characteristic = base.characteristic
        self.zero = RatFunc(self, Poly.zero(base), Poly.one(base))
        self.one = RatFunc(self, Poly.one(base), Poly.one(base))
        self.t = RatFunc(self, Poly.x(base), Poly.one(base))

    def coerce(self, x):
        if isinstance(x, RatFunc):
            if x.parent is not self:
                raise ValueError("element of a different function field")
            return x
        if isinstance(x, Poly):
            if x.field != self.base:
                raise ValueError("polynomial over a different constant field")
            return RatFunc(self, x, Poly.one(self.base))
        try:
            c = self.base.coerce(x)
        except (TypeError, ValueError) as exc:
            raise TypeError(f"cannot coerce {x!r} into {self}") from exc
        return RatFunc(self, Poly.constant(self.base, c), Poly.one(self.base))

    def inv(self, a):
        return RatFunc(self, a.denominator, a.numerator)

    def __repr__(self):
        return f"{self.base}(t)"
