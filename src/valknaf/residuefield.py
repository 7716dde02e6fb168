"""Residue-field services shared by the splitting engine.

The residue fields arising here are either finite fields or Q.  This module
gives them a uniform face: deterministic factorization of monic polynomials,
simple extensions by an irreducible (returning the new field, the embedding,
the chosen root and a decomposition map back onto the old field), and
F_p-linear decomposition helpers for finite fields.
"""

from __future__ import annotations

from fractions import Fraction

from .gf import (GF, FiniteField, _embedding_root, _identity, embed,
                 row_reduce)
from .gf import factor as gf_factor
from .poly import QQ, Poly, RationalField


class UnsupportedResidueExtension(NotImplementedError):
    """Residue extension outside the supported scope (number fields)."""


def factor_over(field, f: Poly):
    """Monic irreducible factors of f with multiplicity, in a fixed order.

    Finite fields use the in-package seeded distinct-degree and
    equal-degree splitting (`gf.factor`); Q delegates to sympy.  Factors
    are monic, sorted by (degree, coefficients).
    """
    if isinstance(field, FiniteField):
        _, pairs = gf_factor(f)
        return pairs
    if isinstance(field, RationalField):
        return _factor_rational(f)
    raise TypeError(f"no factorization over {field!r}")


def _factor_rational(f: Poly):
    # sympy is imported here alone: only a residue field of Q (pi-adic over
    # Q(t)) factors over Q, and every other path stays free of its import
    import sympy

    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c) * x ** i for i, c in enumerate(f.coeffs))
    _, fac = sympy.factor_list(sympy.Poly(expr, x))
    pairs = []
    for g, m in fac:
        coeffs = [QQ.coerce(Fraction(str(c)))
                  for c in reversed(sympy.Poly(g, x).all_coeffs())]
        pairs.append((Poly(QQ, coeffs).monic(), int(m)))
    pairs.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return pairs


def linear_decomposer(field: FiniteField, basis):
    """Callable writing elements of a finite field over an F_p basis.

    basis: list of n = field.n element codes that are F_p-linearly
    independent.  Returns code -> list of ints (mod p coefficients).
    """
    p = field.p
    n = field.n
    if len(basis) != n:
        raise ValueError("basis has wrong size")
    # invert the basis matrix over F_p (columns = coordinates of basis elems)
    cols = [field.coords(b) for b in basis]
    aug = [[col[i] for col in cols] + [int(k == i) for k in range(n)]
           for i in range(n)]
    pivots = row_reduce(GF(p), aug)
    if any(c not in pivots for c in range(n)):
        raise ValueError("basis is linearly dependent")
    inv_rows = [row[n:] for row in aug]

    def decompose(x):
        vec = field.coords(x)
        return [sum(a * c for a, c in zip(row, vec)) % p for row in inv_rows]

    return decompose


class ResidueExtension:
    """A simple extension old -> old[z]/(psi) of a residue field.

    Attributes: new_field, embed_fn (old elem -> new elem), root (the chosen
    root of psi in new_field), decompose (new elem -> list of old-field
    coefficients over the basis root^s, s < deg psi).
    """

    def __init__(self, new_field, embed_fn, root, decompose):
        self.new_field = new_field
        self.embed = embed_fn
        self.root = root
        self.decompose = decompose


def extend_residue(field, psi: Poly) -> ResidueExtension:
    """Extend a residue field by a monic irreducible polynomial psi.

    Deterministic: for finite fields the new field is the canonical
    GF(p^(n*d)) and the root is the first one in element order.  Over Q only
    degree-1 extensions are supported (the residue fields of the shipped
    base valuations with characteristic 0 are Q itself).
    """
    d = psi.degree
    if d < 1:
        raise ValueError("extension polynomial must have degree >= 1")
    if d == 1:
        root = field.neg(psi[0])
        return ResidueExtension(field, _identity, root, lambda x: [x])
    if isinstance(field, RationalField):
        raise UnsupportedResidueExtension(
            f"a residue field of degree {d} over Q would be a number field; "
            "number-field residue arithmetic is out of scope")
    if not isinstance(field, FiniteField):
        raise TypeError(f"cannot extend {field!r}")
    big = GF(field.p, field.n * d)
    embed_fn = embed(field, big)
    root = _embedding_root(big, psi.map_coeffs(embed_fn, big).coeffs, field.n)
    # basis embed(y^u) * root^s of big over F_p; y^u has the code p^u
    n, mul = field.n, big.mul
    gens = [embed_fn(field.p ** u) for u in range(n)]
    basis = []
    pow_root = big.one
    for _ in range(d):
        basis += [mul(g, pow_root) for g in gens]
        pow_root = mul(pow_root, root)
    fp_dec = linear_decomposer(big, basis)

    def decompose(x):
        flat = fp_dec(x)
        return [field.from_coords(flat[s * n:(s + 1) * n]) for s in range(d)]

    return ResidueExtension(big, embed_fn, root, decompose)
