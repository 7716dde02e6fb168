"""Tests for rank-2 monomial valuations and binomial extensions."""

import random
from fractions import Fraction as F
from math import gcd, inf

import pytest
import sympy

from valknaf.gf import GF
from valknaf.monoval import (MAX_RESIDUAL_DEGREE, BinomialExtensionSpec,
                             MonomialValuation, ResidualDegreeError,
                             extend_binomial, mono_value)
from valknaf.ordgroup import initial_index, subgroup_index
from valknaf.poly import QQ, Poly
from valknaf.residuefield import factor_over
from valknaf.raminv import knaf_decide, validate

from oracles import coset_count_box, initial_index_box, is_irreducible_rabin

F5 = GF(5, 1)
F7 = GF(7, 1)
STD = MonomialValuation(F5, (1, 0), (0, 1))


def single(v, spec):
    invs = extend_binomial(v, spec)
    assert len(invs) == 1
    return knaf_decide(invs[0])


# -- mono_value ----------------------------------------------------------------

def test_mono_value_examples():
    assert mono_value(STD, {(2, 1): 1}) == (2, 1)
    assert mono_value(STD, {(1, 0): 1, (0, 1): 1}) == (0, 1)
    assert mono_value(STD, {(3, 0): 1, (1, 2): 1, (0, 5): 1}) == (0, 5)
    assert mono_value(STD, {}) == inf
    assert mono_value(STD, {(4, 4): 0}) == inf
    assert mono_value(STD, [(1, 2, 3)]) == (1, 2)  # triple form


def poly_mul(k, f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, k.zero) + c1 * c2
    return out


def test_mono_value_multiplicative():
    rng = random.Random(20240820)
    vals = [MonomialValuation(F5, (1, 0), (0, 1)),
            MonomialValuation(F5, (F(2, 3), F(1, 2)), (1, 1)),
            MonomialValuation(QQ, (3, 1), (F(1, 5), 2))]
    for v in vals:
        k = v.base_field
        nonzero = ([x for x in k.elements() if x]
                   if hasattr(k, "elements") else
                   [F(1), F(-2), F(3, 4), F(7)])
        for _ in range(25):
            f = {(rng.randint(0, 5), rng.randint(0, 5)): rng.choice(nonzero)
                 for _ in range(rng.randint(1, 4))}
            g = {(rng.randint(0, 5), rng.randint(0, 5)): rng.choice(nonzero)
                 for _ in range(rng.randint(1, 4))}
            vf, vg = mono_value(v, f), mono_value(v, g)
            assert mono_value(v, poly_mul(k, f, g)) == vf + vg


def test_weight_validation():
    with pytest.raises(ValueError):
        MonomialValuation(F5, (1, 2), (2, 4))  # dependent
    with pytest.raises(ValueError):
        MonomialValuation(F5, (1, 0, 0), (0, 1, 0))  # wrong length
    with pytest.raises(TypeError):
        MonomialValuation("F5", (1, 0), (0, 1))


# -- the epsilon dichotomy -----------------------------------------------------

def test_dichotomy_z2_eq_x():
    k = single(STD, BinomialExtensionSpec(2, 1, 0, 1))
    assert (k.e, k.f, k.eps, k.d) == (2, 1, 1, 1)
    assert not k.eft and k.defectless and not k.initial_condition


def test_dichotomy_z2_eq_y():
    k = single(STD, BinomialExtensionSpec(2, 0, 1, 1))
    assert (k.e, k.f, k.eps, k.d) == (2, 1, 2, 1)
    assert k.eft


def test_dichotomy_z2_eq_xy():
    k = single(STD, BinomialExtensionSpec(2, 1, 1, 1))
    assert (k.e, k.f, k.eps, k.d) == (2, 1, 1, 1)
    assert not k.eft


def test_nonsquare_constant_inert():
    k = single(STD, BinomialExtensionSpec(2, 0, 0, 2))
    assert (k.e, k.f, k.eps, k.d) == (1, 2, 1, 1)
    assert k.eft  # eps = 1 = e


def test_mixed_ramified_inert():
    # z^4 = 2 x^2: e = 2 from the value group, f = 2 from residual T^2 - 2
    k = single(STD, BinomialExtensionSpec(4, 2, 0, 2))
    assert (k.e, k.f, k.eps, k.d) == (2, 2, 1, 1)
    assert not k.eft


def test_rank2_fiber_initial_index():
    # z^6 = x^2 y^3: w = (1/3, 1/2); eps counts the (1/2)Z fiber over 0
    k = single(STD, BinomialExtensionSpec(6, 2, 3, 1))
    assert (k.e, k.f, k.eps) == (6, 1, 2)
    assert not k.eft


# -- wild binomials (char k divides n) -----------------------------------------

def test_wild_spec_answered():
    k = single(STD, BinomialExtensionSpec(5, 1, 0, 1))
    assert (k.e, k.f, k.eps, k.d, k.eft) == (5, 1, 1, 1, False)
    k = single(STD, BinomialExtensionSpec(5, 0, 1, 1))
    assert (k.e, k.f, k.eps, k.d, k.eft) == (5, 1, 5, 1, True)
    k = single(STD, BinomialExtensionSpec(10, 2, 4, 2))
    assert (k.e, k.f, k.eps) == (5, 2, 1)
    k = single(STD, BinomialExtensionSpec(25, 5, 3, 3))
    assert (k.e, k.eps) == (25, 5)
    # 5 | gcd(n, a, b): the right-hand side is a 5th power
    for spec in (BinomialExtensionSpec(10, 5, 5, 2),
                 BinomialExtensionSpec(15, 0, 3, 2)):
        with pytest.raises(ValueError, match="reducible"):
            extend_binomial(STD, spec)


@pytest.mark.parametrize("k", [GF(2), GF(3), GF(2, 2), F5],
                         ids=["GF2", "GF3", "GF4", "GF5"])
def test_wild_specs_against_oracles(k):
    """e and eps by box enumeration, f by Rabin's test on T^g - c."""
    rng = random.Random(20261019)
    p = k.characteristic
    checked = 0
    for _ in range(50):
        if checked == 3:
            break
        v = MonomialValuation(k, (1, F(rng.randint(0, 2), rng.randint(1, 2))),
                              (0, 1))
        n = p * rng.randint(1, 3)
        g = rng.choice([d for d in range(1, n + 1) if n % d == 0 and d % p])
        a, b = g * rng.randint(-3, 3), g * rng.randint(-3, 3)
        c = random_constant(rng, k)
        try:
            (inv,) = extend_binomial(v, BinomialExtensionSpec(n, a, b, c))
        except ValueError:
            continue
        checked += 1
        g = gcd(n, gcd(a, b))
        assert g % p
        verdict = knaf_decide(inv)
        gens_omega = [tuple(w) for w in inv.gamma_omega.basis]
        gens_nu = [tuple(w) for w in inv.gamma_nu.basis]
        assert verdict.e == n // g == coset_count_box(gens_omega, gens_nu, 2)
        assert verdict.eps == initial_index_box(gens_omega, gens_nu, 2)
        assert verdict.f == g
        psi = Poly(k, [k.neg(k.coerce(c))] + [k.zero] * (g - 1) + [k.one])
        assert is_irreducible_rabin(psi)
        assert verdict.d == 1 and validate(inv) == []
    assert checked == 3


# -- errors --------------------------------------------------------------------


def test_reducible_binomial_rejected():
    with pytest.raises(ValueError):
        extend_binomial(STD, BinomialExtensionSpec(2, 0, 0, 4))  # 4 = 2^2
    with pytest.raises(ValueError):
        extend_binomial(STD, BinomialExtensionSpec(4, 2, 0, 1))  # (z^2-x)(z^2+x)
    vq = MonomialValuation(QQ, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        extend_binomial(vq, BinomialExtensionSpec(4, 0, 0, -4))  # -4 s^4 clause
    with pytest.raises(ValueError):
        extend_binomial(STD, BinomialExtensionSpec(2, 1, 0, 0))  # c = 0
    big_cube = F((2 ** 23 + 1) ** 3, 7 ** 3)
    assert big_cube.numerator > 2 ** 64
    with pytest.raises(ValueError):
        extend_binomial(vq, BinomialExtensionSpec(3, 0, 0, big_cube))
    k = single(vq, BinomialExtensionSpec(3, 0, 0, big_cube + 1))
    assert (k.e, k.f) == (1, 3)


def test_minus_four_clause_only_when_applicable():
    # z^4 = -4 x^2 is irreducible (the exponent is not divisible by 4)
    vq = MonomialValuation(QQ, (1, 0), (0, 1))
    k = single(vq, BinomialExtensionSpec(4, 2, 0, -4))
    assert (k.e, k.f) == (2, 2)


# -- structural properties -------------------------------------------------------

def initial_condition_predicate(v, w):
    """w congruent mod the value group to a vector with zero first coordinate.

    The first coordinates of the value group form gZ for the fraction gcd g
    of the two weights' first coordinates, so this is one divisibility test.
    """
    a, b = v.weight_x[0], v.weight_y[0]
    if a == 0 and b == 0:
        return w[0] == 0
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    g = F(num, a.denominator * b.denominator)
    return (w[0] / g).denominator == 1


def test_random_specs_structural():
    rng = random.Random(20240821)
    fields = [F5, F7, QQ]
    accepted = 0
    for _ in range(120):
        k = rng.choice(fields)
        try:
            v = MonomialValuation(
                k,
                (F(rng.randint(1, 3), rng.randint(1, 2)), rng.randint(0, 2)),
                (rng.randint(0, 2), F(rng.randint(1, 3), rng.randint(1, 2))))
        except ValueError:
            continue
        n = rng.randint(1, 6)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        c = (rng.choice([x for x in k.elements() if x])
             if hasattr(k, "elements") else F(rng.randint(1, 9)))
        spec = BinomialExtensionSpec(n, a, b, c)
        try:
            invs = extend_binomial(v, spec)
        except ValueError:
            continue
        accepted += 1
        assert len(invs) == 1
        inv = invs[0]
        assert validate(inv) == []
        assert inv.local_degree == n
        verdict = knaf_decide(inv)
        assert verdict.e == n // gcd(n, gcd(a, b))
        assert verdict.d == 1
        assert verdict.eps <= verdict.e
        w = v.monomial_value(a, b) * F(1, n)
        assert verdict.eft == (verdict.initial_condition and verdict.defectless)
        assert verdict.initial_condition == initial_condition_predicate(v, w), (
            v, spec)
    assert accepted >= 40


def test_scaling_invariance():
    specs = [BinomialExtensionSpec(2, 1, 0, 1), BinomialExtensionSpec(2, 0, 1, 1),
             BinomialExtensionSpec(2, 1, 1, 1), BinomialExtensionSpec(2, 0, 0, 2),
             BinomialExtensionSpec(6, 2, 3, 1)]
    base = [single(STD, s) for s in specs]
    for c in (F(1, 3), F(2), F(7, 2)):
        v = MonomialValuation(F5, (c, 0), (0, c))
        scaled = [single(v, s) for s in specs]
        for kb, ks in zip(base, scaled):
            assert (kb.e, kb.eps, kb.eft) == (ks.e, ks.eps, ks.eft)


# -- the residual polynomial T^g - c (Capelli) ----------------------------------

def residual_factors(k, g, c):
    """Irreducible factors of T^g - c with multiplicity, by the factoring
    routines as oracle: sympy.factor_list over Q, Berlekamp over GF(q)."""
    if k is QQ:
        t = sympy.symbols("t")
        _, fac = sympy.factor_list(t ** g - sympy.Rational(c.numerator,
                                                           c.denominator), t)
        return [(sympy.degree(f, t), m) for f, m in fac]
    psi = Poly(k, [k.neg(k.coerce(c))] + [k.zero] * (g - 1) + [k.one])
    return [(f.degree, m) for f, m in factor_over(k, psi)]


def random_constant(rng, k):
    if k is QQ:
        return (F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                ** rng.choice((1, 1, 2, 3, 4)))
    while True:
        c = k.element(rng.randrange(k.p) for _ in range(k.n))
        if c:
            return c


@pytest.mark.parametrize("k", [QQ, F5, F7, GF(3, 2), GF(5, 2)],
                         ids=["Q", "GF5", "GF7", "GF9", "GF25"])
def test_residual_binomial_irreducible_exactly_when_accepted(k):
    rng = random.Random(20261018)
    v = MonomialValuation(k, (1, F(1, 2)), (0, 1))
    accepted = rejected = 0
    for _ in range(150):
        n = rng.randint(2, 12)
        g = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        a, b = g * rng.randint(-3, 3), g * rng.randint(-3, 3)
        g = gcd(n, gcd(a, b))
        c = random_constant(rng, k)
        factors = residual_factors(k, g, c)
        try:
            invs = extend_binomial(v, BinomialExtensionSpec(n, a, b, c))
        except ValueError:
            rejected += 1
            assert factors != [(g, 1)], (n, a, b, c)
            continue
        accepted += 1
        assert factors == [(g, 1)], (n, a, b, c)
        assert len(invs) == 1
        assert invs[0].residue_degree == g
        assert invs[0].local_degree == n
        assert knaf_decide(invs[0]).e == n // g
    assert accepted >= 50 and rejected >= 30


def test_residual_degree_bound():
    vq = MonomialValuation(QQ, (1, 0), (0, 1))
    for n in (MAX_RESIDUAL_DEGREE + 1, 10 ** 8, 10 ** 30 + 57):
        with pytest.raises(ResidualDegreeError, match="residual degree"):
            extend_binomial(vq, BinomialExtensionSpec(n, 0, 0, 2))
    # wild: the bound applies as for tame n
    with pytest.raises(ResidualDegreeError, match="residual degree"):
        extend_binomial(STD, BinomialExtensionSpec(5 * 2 ** 17, 0, 0, 2))
