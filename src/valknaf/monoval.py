"""Rank-2 monomial valuations on k(x,y) and their binomial extensions.

A monomial valuation assigns x and y rational weight vectors and gives each
polynomial the lex-least weight of its monomials; with Z-linearly
independent weights the minimum is attained at a single monomial, which
makes the assignment a valuation with value group Γ_ν = Z·w_x + Z·w_y of
rational rank 2 and residue field k.

`extend_binomial` adjoins z with z^n = c·x^a·y^b.  Writing g = gcd(n, a, b)
and w = (a·w_x + b·w_y)/n, the extended value group is Γ_ν + Z·w with
e = [Γ_ω : Γ_ν] = n/g, and z^e / (x^(a/g)·y^(b/g)) is a unit U with
U^(n/e) = c exactly — the monomial of value e·w divides z^n's right-hand
side on the nose, so the residual equation is T^g = c̄ with unit 1.  By
Capelli's theorem, which holds in every characteristic, T^g − c̄ is
irreducible over k exactly when c̄ is no q-th power for a prime q | g and,
when 4 | g, not in −4k⁴; every such q (and 4) divides n, a and b, so the
irreducibility test of the binomial has already ruled both out.  There is
then one extension, with f = g, and e·f = n makes it defectless.  Over
GF(q) every element is a p-th power, so an irreducible binomial has p ∤ g
even when p | n.

These are the smallest instances separating ε from e: the criterion's
initial condition holds or fails depending on whether w is congruent mod
Γ_ν to a vector supported in the lex-smallest coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .gf import FiniteField
from .numtheory import iroot, primefactors
from .ordgroup import LexGroup, RationalVector, subgroup_index
from .poly import Poly, RationalField, power
from .raminv import ExtensionInvariants

# largest g = gcd(n, a, b), the degree of the residual polynomial T^g - c,
# that extend_binomial builds; every fixture, demo and workload has g <= 12
MAX_RESIDUAL_DEGREE = 2 ** 16


class ResidualDegreeError(ValueError):
    """gcd(n, a, b) exceeds MAX_RESIDUAL_DEGREE: out of resource bounds."""


class MonomialValuation:
    """Lex-monomial valuation on k(x,y) given by two weight vectors.

    weight_x, weight_y: length-2 rational vectors, Z-linearly independent
    (equivalently their determinant is nonzero), so distinct monomials get
    distinct values and the valuation is multiplicative.
    """

    def __init__(self, base_field, weight_x, weight_y):
        if not isinstance(base_field, (FiniteField, RationalField)):
            raise TypeError("base field must be a finite field or Q")
        wx, wy = RationalVector(weight_x), RationalVector(weight_y)
        if len(wx) != 2 or len(wy) != 2:
            raise ValueError("weights must be rational vectors of length 2")
        if wx[0] * wy[1] - wx[1] * wy[0] == 0:
            raise ValueError("weight vectors must be Z-linearly independent")
        self.base_field = base_field
        self.weight_x = wx
        self.weight_y = wy

    def value_group(self) -> LexGroup:
        return LexGroup(2, [self.weight_x, self.weight_y])

    def monomial_value(self, a: int, b: int) -> RationalVector:
        return self.weight_x * a + self.weight_y * b

    def __repr__(self):
        return (f"MonomialValuation({self.base_field!r}, x -> {self.weight_x},"
                f" y -> {self.weight_y})")


class BinomialExtensionSpec:
    """The extension K(z)/K with z^n = c * x^a * y^b.

    n is a positive integer, a and b integers, c a nonzero constant of the
    base field.
    """

    def __init__(self, n: int, a: int, b: int, c):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = int(n)
        self.a = int(a)
        self.b = int(b)
        self.c = c

    def __repr__(self):
        return (f"BinomialExtensionSpec(z^{self.n} = "
                f"{self.c} * x^{self.a} * y^{self.b})")


def _is_qth_power(field, c, q: int) -> bool:
    """Is the element c, nonzero, a q-th power in the field (q prime, or 4
    for the special case)?"""
    if isinstance(field, RationalField):
        if c < 0 and q % 2 == 0:
            return False
        return all(iroot(m, q) ** q == m
                   for m in (abs(c.numerator), c.denominator))
    g = gcd(q, field.q - 1)
    return power(field, c, (field.q - 1) // g) == field.one


def _binomial_irreducible(field, g: int, c) -> bool:
    """Classical criterion for z^n - c*x^a*y^b irreducible over k(x,y), c an
    element of the field.

    z^n - u is irreducible iff u is not a q-th power in the field for any
    prime q dividing n, and, when 4 divides n, u is not of the form -4*s^4.
    For u = c*x^a*y^b being a q-th power forces q | a, q | b and c a q-th
    power in k, so only the primes of g = gcd(n, a, b) matter, and the
    -4*s^4 clause only when 4 | g.
    """
    for q in primefactors(g):
        if _is_qth_power(field, c, q):
            return False
    # the -4s^4 clause; vacuous in characteristic 2 where -4 = 0
    if g % 4 == 0 and field.characteristic != 2:
        minus_c_over_4 = field.neg(field.mul(c, field.inv(field.coerce(4))))
        if _is_qth_power(field, minus_c_over_4, 4):
            return False
    return True


def extend_binomial(v: MonomialValuation, spec: BinomialExtensionSpec) -> list:
    """All extensions of v to K(z), z^n = c*x^a*y^b, as ExtensionInvariants.

    Raises ResidualDegreeError when gcd(n, a, b) exceeds
    MAX_RESIDUAL_DEGREE, and ValueError when the binomial is reducible or c
    is zero.
    """
    k = v.base_field
    n, a, b = spec.n, spec.a, spec.b
    c = k.coerce(spec.c)
    if not c:
        raise ValueError("c must be a nonzero constant")
    g = gcd(n, gcd(a, b))
    if g > MAX_RESIDUAL_DEGREE:
        raise ResidualDegreeError(
            f"gcd(n, a, b) = {g} exceeds the residual degree bound "
            f"{MAX_RESIDUAL_DEGREE}")
    binomial = f"binomial z^{n} = {k.render(c)}*x^{a}*y^{b}"
    if not _binomial_irreducible(k, g, c):
        raise ValueError(f"{binomial} is reducible over the base field")

    e = n // g
    w = v.monomial_value(a, b) * Fraction(1, n)
    gamma_nu = v.value_group()
    gamma_omega = LexGroup(2, [v.weight_x, v.weight_y, w])
    idx = subgroup_index(gamma_omega, gamma_nu)
    if idx != e:
        raise ValueError(
            f"inconsistent data: lattice index {idx} != n/gcd(n,a,b) = {e}")

    # z^e / x^(a/g) y^(b/g) is a unit whose g-th power is exactly c, so the
    # residual equation is T^g = c-bar with residue unit 1; T^g - c-bar is
    # irreducible by Capelli (module docstring)
    psi = Poly(k, [k.neg(c)] + [k.zero] * (g - 1) + [k.one])
    inv = ExtensionInvariants(
        gamma_nu=gamma_nu,
        gamma_omega=gamma_omega,
        residue_degree=g,
        local_degree=n,
        residue_char=k.characteristic,
        total_degree=n,
        provenance=f"{binomial}: e = {e}, residual factor {psi}")
    return [inv]
