"""Tests for the rank-1 extension engine."""

import math
import random
from fractions import Fraction as F

import pytest

from oracles import (padic_factor_degrees, squarefree_by_ratfunc_euclid,
                     squarefree_over_q_by_euclid)
from valknaf import gf
from valknaf.funcfield import FunctionField, RatFunc
from valknaf.gf import GF
from valknaf.localsplit import (BaseValuation, LocalFactor,
                                NewtonPolygonSegment, UnresolvedBranchError,
                                newton_polygon, residual_polynomial,
                                _is_squarefree, split_extensions,
                                to_extension_invariants)
from valknaf.poly import Poly, QQ, poly_gcd
from valknaf.raminv import knaf_decide
from valknaf.residuefield import UnsupportedResidueExtension

V2 = BaseValuation.padic(2)
V3 = BaseValuation.padic(3)
V5 = BaseValuation.padic(5)


def vt_over(q):
    return BaseValuation.pi_adic(GF(q, 1), [0, 1])


def efd(factors):
    return [(lf.e, lf.f, lf.degree) for lf in factors]


# -- base valuations ---------------------------------------------------------

def test_value_of_examples():
    assert V2.value_of(12) == 2
    assert V5.value_of(F(7, 25)) == -2
    vt = vt_over(3)
    assert vt.value_of(vt.field.from_coeff_lists([0, 0, 0, 1, 0, 1])) == 3
    assert V2.value_of(0) == float("inf")


def test_padic_requires_prime():
    with pytest.raises(ValueError):
        BaseValuation.padic(6)


def test_pi_adic_requires_irreducible():
    with pytest.raises(ValueError):
        BaseValuation.pi_adic(GF(3, 1), [2, 0, 1])  # t^2 + 2 = (t-1)(t+1)
    with pytest.raises(ValueError):
        BaseValuation.pi_adic(GF(3, 1), [1, 2])  # not monic


def test_pi_adic_rational_constants_degree_limit():
    # t-adic on Q(t) works; a degree-2 residue extension of Q is refused
    vq = BaseValuation.pi_adic(QQ, [0, 1])
    assert vq.residue_char == 0
    with pytest.raises(UnsupportedResidueExtension):
        BaseValuation.pi_adic(QQ, [1, 0, 1])


def test_pi_adic_nontrivial_residue_field():
    # (t^2+1)-adic on F_3(t): residue field F_9
    v = BaseValuation.pi_adic(GF(3, 1), [1, 0, 1])
    assert v.residue_field is GF(3, 2)
    t = v.field.t
    assert v.value_of((t * t + 1) ** 2 / t) == 2
    r = v.shifted_reduce(t, 0)
    k9 = v.residue_field
    assert k9.add(k9.mul(r, r), k9.one) == k9.zero


def stage0_bases():
    y = GF(2, 2).element([0, 1])
    return [BaseValuation.padic(2), BaseValuation.padic(3),
            BaseValuation.padic(101),
            BaseValuation.pi_adic(GF(3), [1, 1]),
            BaseValuation.pi_adic(GF(3), [1, 0, 1]),
            BaseValuation.pi_adic(GF(3), [1, 2, 0, 1]),  # t^3 - t + 1
            BaseValuation.pi_adic(GF(2, 2), [y, 1, 1]),  # t^2 + t + y
            BaseValuation.pi_adic(QQ, [0, 1]),
            BaseValuation.pi_adic(QQ, [-7, 1])]


def rand_residue(rng, k):
    while True:
        r = (F(rng.randint(-9, 9), rng.randint(1, 9)) if k is QQ
             else k.from_coords([rng.randrange(k.p) for _ in range(k.n)]))
        if r:
            return r


@pytest.mark.parametrize("v", stage0_bases(), ids=repr)
def test_stage0_lift_reduce_round_trip(v):
    rng = random.Random(30517)
    pi = v.uniformizer
    for w in range(-3, 4):
        for _ in range(4):
            r = rand_residue(rng, v.residue_field)
            a = v.lift_shifted(r, w)
            assert v.value_of(a) == w
            assert v.shifted_reduce(a, w) == r
            assert v.shifted_reduce(a, F(w)) == r
            assert not v.shifted_reduce(pi * a, w)
            with pytest.raises(ValueError):
                v.shifted_reduce(pi * a, w + 2)


@pytest.mark.parametrize("v", stage0_bases(), ids=repr)
def test_stage0_value_additive_on_products(v):
    rng = random.Random(881)
    pi = v.uniformizer
    if v.field is QQ:
        p = v.residue_char
        elements = [-p ** 3 * 5, F(7, p ** 2), F(-p * 11, 3 * p ** 4), -1,
                    F(-2 * p, 9), p ** 5 * 13]
    else:
        t = v.field.t
        elements = [pi ** 3 * (t + 2), (t * t + 1) / pi ** 2, -pi / (t + 5),
                    v.field.one * 3, pi ** -4 * t]
    elements += [v.lift_shifted(rand_residue(rng, v.residue_field),
                                rng.randint(-3, 3)) for _ in range(4)]
    for a in elements:
        for b in elements:
            assert v.value_of(a * b) == v.value_of(a) + v.value_of(b)
    assert v.value_of(0) == float("inf")


# -- newton polygons ---------------------------------------------------------

def test_polygon_examples():
    assert newton_polygon(V2, [-2, 0, 1]) == [
        NewtonPolygonSegment(slope=F(-1, 2), length=2)]
    assert newton_polygon(V2, [-4, 0, 1]) == [
        NewtonPolygonSegment(slope=F(-1), length=2)]
    assert newton_polygon(V5, [1, 0, 1]) == [
        NewtonPolygonSegment(slope=F(0), length=2)]


def test_polygon_two_segments():
    # (x^2 - 2)(x - 4) = x^3 - 4x^2 - 2x + 8: root valuations 1/2, 1/2, 2
    segs = newton_polygon(V2, [8, -2, -4, 1])
    assert segs == [NewtonPolygonSegment(slope=F(-2), length=1),
                    NewtonPolygonSegment(slope=F(-1, 2), length=2)]
    assert all(a.slope < b.slope for a, b in zip(segs, segs[1:]))
    assert sum(s.length for s in segs) == 3


def test_polygon_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        newton_polygon(V2, [0, -2, 1])
    with pytest.raises(ValueError):
        newton_polygon(V2, [2, 0, 2])  # not monic


# -- residual polynomials ----------------------------------------------------

def test_residual_examples():
    seg = newton_polygon(V5, [1, 0, 1])[0]
    r = residual_polynomial(V5, [1, 0, 1], seg)
    assert r == Poly(GF(5, 1), [1, 0, 1])  # T^2 + 1 over F_5

    seg = newton_polygon(V2, [-2, 0, 1])[0]
    r = residual_polynomial(V2, [-2, 0, 1], seg)
    assert r == Poly(GF(2, 1), [1, 1])  # T - 1 = T + 1 over F_2

    vt = vt_over(3)
    g = [-vt.field.t, 0, 1]
    seg = newton_polygon(vt, g)[0]
    r = residual_polynomial(vt, g, seg)
    assert r == Poly(GF(3, 1), [2, 1])  # T - 1 over F_3

    # (x - 5)(x^2 + 2): the second segment starts at x = 1
    g = [-10, 2, -5, 1]
    first, second = newton_polygon(V5, g)
    assert residual_polynomial(V5, g, first) == Poly(GF(5, 1), [3, 2])
    assert residual_polynomial(V5, g, second) == Poly(GF(5, 1), [2, 0, 1])


def test_residual_rejects_foreign_segment():
    with pytest.raises(ValueError):
        residual_polynomial(V2, [-2, 0, 1], NewtonPolygonSegment(F(-1), 2))


# -- split_extensions: named instances ---------------------------------------

def test_split_named_instances():
    assert efd(split_extensions(V2, [-2, 0, 1])) == [(2, 1, 2)]
    assert efd(split_extensions(V5, [1, 0, 1])) == [(1, 1, 1), (1, 1, 1)]
    assert efd(split_extensions(V3, [1, 0, 1])) == [(1, 2, 2)]
    vt = vt_over(3)
    assert efd(split_extensions(vt, [-vt.field.t, 0, 1])) == [(2, 1, 2)]


def test_split_wild_cases():
    # Q_2(zeta_8): totally ramified quartic
    assert efd(split_extensions(V2, [1, 0, 0, 0, 1])) == [(4, 1, 4)]
    # x^4 + 4 = (x^2-2x+2)(x^2+2x+2): two ramified quadratics
    assert efd(split_extensions(V2, [4, 0, 0, 0, 1])) == [(2, 1, 2), (2, 1, 2)]
    # roots +-i(sqrt(3)-1): the field Q_2(i, sqrt 3) has e = f = 2
    assert efd(split_extensions(V2, [4, 0, 8, 0, 1])) == [(2, 2, 4)]
    # x^3 - 2 at 3 and at 5
    assert efd(split_extensions(V3, [-2, 0, 0, 1])) == [(3, 1, 3)]
    assert efd(split_extensions(V5, [-2, 0, 0, 1])) == [(1, 1, 1), (1, 2, 2)]


def test_split_function_field_cases():
    vt = vt_over(3)
    t = vt.field.t
    # purely inseparable-looking but squarefree: x^3 - t
    assert efd(split_extensions(vt, [-t, 0, 0, 1])) == [(3, 1, 3)]
    # inert cubic: x^3 + 2x + 1 stays irreducible over F_3
    assert efd(split_extensions(vt, [1, 2, 0, 1])) == [(1, 3, 3)]
    # mixed product: (x^2 - t)(x^2 - 1)
    g = [t, 0, -(1 + t), 0, 1]
    assert efd(split_extensions(vt, g)) == [(2, 1, 2), (1, 1, 1), (1, 1, 1)]


def test_split_exact_division_path():
    # x^2 - 1/4 has roots +-1/2 of valuation -1 at v_2
    assert efd(split_extensions(V2, [F(-1, 4), 0, 1])) == [(1, 1, 1), (1, 1, 1)]
    # x(x^2 - 2) has the zero root split off via exact key division
    assert efd(split_extensions(V2, [0, -2, 0, 1])) == [(2, 1, 2), (1, 1, 1)]


def test_split_rejects_bad_input():
    with pytest.raises(ValueError):
        split_extensions(V2, [4, 0, -4, 0, 1])  # (x^2-2)^2
    with pytest.raises(ValueError):
        split_extensions(V2, [2, 0, 2])  # not monic
    with pytest.raises(ValueError):
        split_extensions(V2, [1])  # constant
    vt = vt_over(3)
    t = vt.field.t
    # (x - t)^3 (x^3 - t) = (x^3 - t^3)(x^3 - t): inseparable repeated layer
    gbad = [t ** 4, 0, 0, -(t ** 3 + t), 0, 0, 1]
    with pytest.raises(ValueError):
        split_extensions(vt, gbad)


def test_split_depth_limit():
    with pytest.raises(UnresolvedBranchError) as exc:
        split_extensions(V2, [4, 0, 8, 0, 1], depth_limit=1)
    assert "slope" in str(exc.value)


def test_split_unsupported_rational_residue_growth():
    # over Q(t) a branch needing the residue field Q(i) is refused honestly
    vq = BaseValuation.pi_adic(QQ, [0, 1])
    t = vq.field.t
    g = [1 + t, 0, 2, 0, 1]  # (x^2+1)^2 + t
    with pytest.raises(UnsupportedResidueExtension):
        split_extensions(vq, g)


def test_split_determinism_and_certificates():
    g = [4, 0, 8, 0, 1]
    a = split_extensions(V2, g)
    b = split_extensions(V2, g)
    assert a == b
    assert all(isinstance(lf, LocalFactor) for lf in a)
    assert all("slope" in lf.certificate for lf in a)


def test_split_over_gf9_residues_builds_no_gfelement(monkeypatch):
    # x^4 - (t + 1) at pi = t^2 + 1 over F_3(t), the shape of perfbench's
    # quartic items: residue fields GF(9) and up, and every element of them
    # stays an int code; GFElement is only the printable wrapper
    built = []
    real = gf._element
    monkeypatch.setattr(gf, "_element",
                        lambda field, code: built.append(code)
                        or real(field, code))
    v = BaseValuation.pi_adic(GF(3), [1, 0, 1])
    assert v.residue_field is GF(3, 2)
    t = v.field.t
    factors = split_extensions(v, [-(t + 1), 0, 0, 0, 1])
    assert sum(lf.degree for lf in factors) == 4
    assert built == []


# -- the squarefree gate against Euclid over k(t) ----------------------------

def rand_const(rng, k):
    if k is QQ:
        return F(rng.randint(-3, 3))
    return k.from_coords([rng.randrange(k.p) for _ in range(k.n)])


def rand_tpoly(rng, k, degree, nonzero=False):
    while True:
        f = Poly(k, [rand_const(rng, k) for _ in range(degree + 1)])
        if not (nonzero and f.is_zero()):
            return f


def rand_kt_poly(rng, K, degree):
    """Polynomial in x over K = k(t) with t-denominators, nonzero lead."""
    coeffs = [RatFunc(K, rand_tpoly(rng, K.base, rng.randint(0, 2)),
                      rand_tpoly(rng, K.base, rng.randint(0, 1), nonzero=True))
              for _ in range(degree)]
    return Poly(K, coeffs + [K.one + K.t * rng.randint(0, 1)])


# Euclid over Q(t) swells its coefficients: from degree 4 on, one input can
# keep the oracle busy for seconds.
SQUAREFREE_FIELDS = [(GF(2), 4), (GF(3), 4), (GF(5), 4), (GF(2, 2), 4),
                     (QQ, 3)]


@pytest.mark.parametrize("k,max_deg", SQUAREFREE_FIELDS,
                         ids=[repr(k) for k, _ in SQUAREFREE_FIELDS])
def test_squarefree_gate_matches_ratfunc_euclid(k, max_deg):
    rng = random.Random(f"squarefree:{k!r}")
    K = FunctionField(k)
    verdicts = set()
    for _ in range(10):
        g = rand_kt_poly(rng, K, rng.randint(1, max_deg))
        expected = squarefree_by_ratfunc_euclid(g)
        assert _is_squarefree(g) == expected, g
        verdicts.add(expected)
        h = rand_kt_poly(rng, K, rng.randint(1, 2))
        hhk = h * h * rand_kt_poly(rng, K, rng.randint(0, max_deg - 2))
        assert not squarefree_by_ratfunc_euclid(hhk)
        assert not _is_squarefree(hhk), hhk
    assert True in verdicts


def test_squarefree_gate_fixed_cases():
    cases = []
    for q in (2, 3, 5):
        K = FunctionField(GF(q))
        t, x = K.t, Poly.x(K)
        p = K.characteristic
        cases += [
            ((x + t) ** 2 * (x ** 2 + t + 1), False),        # h^2 k
            ((x - t) ** p, False),                           # = x^p - t^p
            (x ** p - t ** p, False),
            (x ** p - t, True),                              # inseparable
            ((x - 1 / t) ** 2 * (x + t / (t + 1)), False),  # t-denominators
            (x ** 2 - 1 / t, True),
            (x * (x + 1 / (t ** 2 + 1)) * (x - t), True),
            (x + 1 / t, True),                               # deg g = 1
            (x - t, True),
        ]
    K = FunctionField(QQ)
    t, x = K.t, Poly.x(K)
    cases += [
        ((x - 1 / t) ** 2 * (x + t), False),
        (x ** 2 - t / (t + 1), True),
        (x + 1 / t, True),
    ]
    for g, expected in cases:
        assert squarefree_by_ratfunc_euclid(g) == expected, g
        assert _is_squarefree(g) == expected, g


def test_squarefree_gate_builds_no_ratfunc(monkeypatch):
    K = FunctionField(GF(3))
    t, x = K.t, Poly.x(K)
    inputs = [
        (x ** 3 - t) * (x ** 2 + x * (1 / (t + 1)) + t),  # squarefree
        (x ** 3 - t) * (x + 1 / t) ** 2,                 # reaches d/dt
    ]
    assert [g.degree for g in inputs] == [5, 5]
    built = []
    init = RatFunc.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    assert [_is_squarefree(g) for g in inputs] == [True, False]
    assert not built


# -- the squarefree gate over Q against Euclid over Fractions ------------------

def rand_q_monic(rng, degree, bound, rational):
    coeffs = [F(rng.randint(-bound, bound),
                rng.randint(1, 12) if rational else 1)
              for _ in range(degree)]
    return Poly(QQ, coeffs + [1])


def qp_non_squarefree(rng):
    """h^2 * k as in perfbench's qp_split `non_squarefree` family."""
    h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 2))] + [1]
    k = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1]
    return Poly(QQ, h) ** 2 * Poly(QQ, k)


def test_squarefree_gate_over_q_matches_euclid():
    rng = random.Random("squarefree:QQ")
    inputs = []
    for bound in (20, 2 ** 80):
        for rational in (False, True):
            for _ in range(15):
                inputs.append(rand_q_monic(rng, rng.randint(1, 7), bound,
                                           rational))
                h = rand_q_monic(rng, rng.randint(1, 3), bound, rational)
                k = rand_q_monic(rng, rng.randint(0, 3), bound, rational)
                inputs.append(h * h * k)
    inputs += [qp_non_squarefree(rng) for _ in range(30)]
    verdicts = []
    for g in inputs:
        expected = squarefree_over_q_by_euclid(g)
        assert _is_squarefree(g) == expected, g
        verdicts.append(expected)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 90


# -- conservation against the Hensel oracle ----------------------------------

def rand_monic_squarefree(rng, field=QQ, max_deg=4, rational=False):
    while True:
        deg = rng.randint(2, max_deg)
        if rational:
            coeffs = [F(rng.randint(-8, 8), rng.randint(1, 4))
                      for _ in range(deg)]
        else:
            coeffs = [F(rng.randint(-10, 10)) for _ in range(deg)]
        g = Poly(field, coeffs + [1])
        if poly_gcd(g, g.derivative()).degree == 0:
            return g


def scaled_integer_model(g):
    """h(y) = M^n g(y/M): monic, integer coefficients, same splitting type."""
    M = math.lcm(*[c.denominator for c in g.coeffs])
    n = g.degree
    return [int(c * M ** (n - i)) for i, c in enumerate(g.coeffs)]


def test_conservation_matches_hensel_oracle():
    rng = random.Random(20240819)
    primes = {2: V2, 3: V3, 5: V5}
    checked = 0
    for _ in range(24):
        rational = rng.random() < 0.4
        g = rand_monic_squarefree(rng, rational=rational)
        p = rng.choice(list(primes))
        factors = split_extensions(primes[p], g)
        assert sum(lf.degree for lf in factors) == g.degree
        assert all(lf.e * lf.f == lf.degree for lf in factors)
        oracle = padic_factor_degrees(scaled_integer_model(g), p)
        assert sorted(lf.degree for lf in factors) == oracle, (g, p)
        checked += 1
    assert checked == 24


def test_mixed_product_over_q():
    # (x^2 - 2)(x^3 - 2)(x - 7) at v_2
    g = Poly(QQ, [-2, 0, 1]) * Poly(QQ, [-2, 0, 0, 1]) * Poly(QQ, [-7, 1])
    factors = split_extensions(V2, g)
    assert efd(factors) == [(2, 1, 2), (3, 1, 3), (1, 1, 1)]
    assert sorted(lf.degree for lf in factors) == padic_factor_degrees(
        [int(c) for c in g.coeffs], 2)


# -- pipeline to invariants ---------------------------------------------------

def test_to_extension_invariants_pipeline():
    cases = [
        (V2, [-2, 0, 1], [(2, 1, 2, 1)]),
        (V5, [1, 0, 1], [(1, 1, 1, 1), (1, 1, 1, 1)]),
        (V3, [1, 0, 1], [(1, 2, 1, 1)]),
    ]
    for v, g, expected in cases:
        factors = split_extensions(v, g)
        got = []
        for lf in factors:
            inv = to_extension_invariants(v, lf, total_degree=len(g) - 1)
            verdict = knaf_decide(inv)
            got.append((verdict.e, verdict.f, verdict.eps, verdict.d))
            assert verdict.eft
        assert got == expected
    vt = vt_over(3)
    lf = split_extensions(vt, [-vt.field.t, 0, 1])[0]
    verdict = knaf_decide(to_extension_invariants(vt, lf, 2))
    assert (verdict.e, verdict.f, verdict.eps, verdict.d) == (2, 1, 2, 1)
    assert verdict.eft
