"""Tests for the rank-1 extension engine."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy

from oracles import (padic_factor_degrees, split_extensions_sorted,
                     squarefree_by_ratfunc_euclid,
                     squarefree_over_q_by_euclid)
from valknaf import gf, inductive, localsplit
from valknaf.funcfield import FunctionField, RatFunc, split_order
from valknaf.gf import GF
from valknaf.localsplit import (MAX_DEPTH, BaseValuation, LocalFactor,
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
    assert vt.value_of(vt.field.coerce(Poly(vt.field.base,
                                              [0, 0, 0, 1, 0, 1]))) == 3
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
    # (x^2 + 2)(x^2 + 6): the depth-1 key x^2 + 2 divides g exactly, and the
    # quotient's digits are the ones left after the zero remainder
    factors = split_extensions(V2, [12, 0, 8, 0, 1])
    assert efd(factors) == [(2, 1, 2), (2, 1, 2)]
    assert any(lf.certificate.endswith("[deg 2] exact key divisor")
               for lf in factors)


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
    # a bound outside 1..MAX_DEPTH is refused before any work: the tower
    # recursions are at most 1 + log2(deg g) levels deep, but every step of
    # a branch adds a frame to _explore, and about 1000 steps would
    # overflow Python's recursion limit
    for limit in (0, MAX_DEPTH + 1):
        with pytest.raises(ValueError, match="depth_limit"):
            split_extensions(V2, [4, 0, 8, 0, 1], depth_limit=limit)


def test_unresolved_message_is_one_bounded_line():
    # roots 1 and 1 + 3^60 stay together for 60 steps; the message names
    # the limit and the last step, the certificate keeps every step
    g = [1 + 3 ** 60, -(2 + 3 ** 60), 1]
    for limit in (10, 40):
        with pytest.raises(UnresolvedBranchError) as exc:
            split_extensions(V3, g, depth_limit=limit)
        message = str(exc.value)
        assert len(message) <= 200 and "\n" not in message
        assert f"not isolated within depth {limit}" in message
        assert f"slope -{limit}," in message
    assert exc.value.certificate.count(" -> ") == 40


def test_close_roots_split_optimal_chain(monkeypatch):
    # roots 1 and 1 + 3^N stay together for N augmentation steps, each of
    # e = f = 1, so each step's key, of degree 1, replaces the tower's one
    # level: a step grades G through one level, not through every step
    # before it
    n = 128
    g = [1 + 3 ** n, -(2 + 3 ** n), 1]
    calls = []
    expand = inductive.phi_expansion

    def counting(f, phi):
        calls.append(phi)
        return expand(f, phi)

    monkeypatch.setattr(inductive, "phi_expansion", counting)
    monkeypatch.setattr(localsplit, "phi_expansion", counting)
    factors = split_extensions(V3, g, depth_limit=n)
    assert [(lf.e, lf.f) for lf in factors] == [(1, 1), (1, 1)]
    assert len(calls) <= 5 * n
    with pytest.raises(UnresolvedBranchError):
        split_extensions(V3, g, depth_limit=n - 1)


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


# -- branch order ---------------------------------------------------------------

ORDER_BASES = [V2, V3, V5, vt_over(3),
               BaseValuation.pi_adic(GF(5), [1, 1]),      # pi = t + 1
               BaseValuation.pi_adic(GF(3), [1, 0, 1])]   # residues in F_9


def branch_order_inputs(rng, v, count):
    """Products of x - a over v's field, a drawn so that the walk meets
    several segments, several residual factors on one segment and exact
    key divisors: a = 0 (the key x), a of value 1..3, and a near or equal
    to the root of the depth-1 key of one of two shared residues; half of
    them times an Eisenstein quadratic."""
    K, R = v.field, v.residue_field
    x = Poly.x(K)
    out = []
    for _ in range(count):
        shared = [rand_residue(rng, R) for _ in range(2)]
        roots = set()
        for _ in range(rng.randint(3, 6)):
            kind, k = rng.randrange(4), rng.randint(1, 3)
            if kind == 0:
                a = K.zero
            elif kind == 1:
                a = v.lift_shifted(rand_residue(rng, R), k)
            else:
                a = K.neg(v.lift_shifted(R.neg(rng.choice(shared)), 0))
                if kind == 3:
                    a = K.add(a, v.lift_shifted(rand_residue(rng, R), k))
            roots.add(a)
        g = x ** 0
        for a in roots:
            g = g * (x - Poly.constant(K, a))
        if rng.random() < 0.5:
            g = g * (x * x - Poly.constant(
                K, v.lift_shifted(rand_residue(rng, R), 1)))
        out.append(g)
    return out


def test_split_branch_order_matches_sorted_walk():
    # the walk appends each factor as it finds it; that is the order the
    # sort on branch paths gave: segments by rising slope, residual
    # factors in factor_over's order, an exact key divisor after the
    # segments of its key, deeper branches in place of the factor they
    # refine.  Certificates are compared too.
    rng = random.Random(4271)
    seen = dict.fromkeys(["segments", "factors", "divisor", "divisor not last"],
                         0)
    for v in ORDER_BASES:
        for g in branch_order_inputs(rng, v, 20):
            factors = split_extensions(v, g)
            assert factors == split_extensions_sorted(v, g), (v, g)
            certs = [lf.certificate for lf in factors]
            first = {c.split(" -> ")[0] for c in certs}
            slopes = [c.split(",")[0] for c in first if "slope" in c]
            seen["segments"] += len(set(slopes)) >= 2
            seen["factors"] += len(set(slopes)) < len(slopes)
            seen["divisor"] += any(c.endswith("exact key divisor")
                                   for c in certs)
            seen["divisor not last"] += any(c.endswith("exact key divisor")
                                        for c in certs[:-1])
    assert min(seen.values()) >= 20, seen


def test_unresolved_names_first_branch_in_branch_order():
    # roots 8, 89 share residue 2 and roots 25, 268 residue 1 mod 3; at
    # depth_limit=1 both branches are unresolved.  The walk stops in the
    # first in branch order, residual factor 1 + x (the residue 2), whose
    # key x + 1 has value 2 at 8 and 89: slope -2, not the other's -3
    x = Poly.x(QQ)
    g = x ** 0
    for a in (8, 89, 25, 268):
        g = g * (x - a)
    messages = []
    for split in (split_extensions, split_extensions_sorted):
        with pytest.raises(UnresolvedBranchError) as exc:
            split(V3, g, depth_limit=1)
        messages.append((str(exc.value), exc.value.certificate))
    assert messages[0] == messages[1]
    assert messages[0] == (
        "branch not isolated within depth 1; last step: [deg 1] slope -2, "
        "residual factor 2 + x (multiplicity 2)",
        "[deg 1] slope 0, residual factor 1 + x (multiplicity 2) -> "
        "[deg 1] slope -2, residual factor 2 + x (multiplicity 2)")


# -- a discriminant identity at depth 0 -----------------------------------------

def ore_index(v, g):
    """Ore's index of the x-polygon of g: the sum of the floors of its
    heights at the abscissae 1, 2, ... under its negative-slope segments.
    For g integral and monic these end at height 0."""
    x0, y0, ind = 0, v.value_of(g[0]), 0
    for seg in newton_polygon(v, g):
        if seg.slope >= 0:
            break
        ind += sum(math.floor(y0 + seg.slope * (x - x0))
                   for x in range(x0 + 1, x0 + seg.length + 1))
        x0, y0 = x0 + seg.length, y0 + seg.slope * seg.length
    assert y0 == 0
    return ind


def one_step_tame(v, g):
    """split_extensions(v, g) if every factor is isolated at depth 0 and
    tame, else None."""
    factors = split_extensions(v, g)
    if any(" -> " in lf.certificate or lf.e % v.residue_char == 0
           for lf in factors):
        return None
    return factors


def assert_discriminant_identity(v, g, v_disc, factors):
    # Ore: v(disc g) = 2 ind + v(disc of the local algebra), and a tame
    # factor of ramification e and residue degree f adds f*(e - 1)
    assert v_disc - 2 * ore_index(v, g) == sum(
        lf.f * (lf.e - 1) for lf in factors), (v, g)


def test_discriminant_identity_at_depth_0_over_q():
    x = sympy.symbols("x")
    rng = random.Random(7121)
    seen = {"index": 0, "ramified": 0}
    for p in (3, 5, 7, 11):
        v, checked = BaseValuation.padic(p), 0
        while checked < 15:
            n = rng.randint(2, 8)
            coeffs = [p ** rng.randint(0, n - i) * rng.randint(-p * p, p * p)
                      if rng.random() < 0.8 else 0 for i in range(n)] + [1]
            disc = sympy.discriminant(
                sum(c * x ** i for i, c in enumerate(coeffs)), x)
            if not coeffs[0] or not disc:
                continue
            g = Poly(QQ, coeffs)
            factors = one_step_tame(v, g)
            if factors is None:
                continue
            assert_discriminant_identity(v, g, v.value_of(int(disc)),
                                         factors)
            checked += 1
            seen["index"] += ore_index(v, g) > 0
            seen["ramified"] += any(lf.e > 1 for lf in factors)
    assert min(seen.values()) >= 15, seen


def test_discriminant_identity_at_depth_0_over_ft():
    # disc g is taken of the lift of g to Z[t][x] and reduced mod p: the
    # discriminant of a monic polynomial is an integer polynomial in its
    # coefficients.  Both sides count powers of pi, not degrees in t.
    x, t = sympy.symbols("x t")
    rng = random.Random(7122)
    seen = {"index": 0, "ramified": 0}
    for p, pi in ((3, [0, 1]), (5, [2, 1]), (7, [0, 1]), (3, [1, 0, 1]),
                  (5, [2, 0, 1])):
        k = GF(p)
        v, pi, checked = BaseValuation.pi_adic(k, pi), Poly(k, pi), 0
        while checked < 8:
            n = rng.randint(2, 5)
            coeffs = []
            for i in range(n):
                c = Poly(k, [rng.randrange(p)
                             for _ in range(rng.randint(1, 3))])
                if rng.random() < 0.6:
                    c = c * pi ** rng.randint(0, n - i)
                coeffs.append(c.coeffs)
            coeffs.append((1,))
            lift = sum(sum(a * t ** j for j, a in enumerate(c)) * x ** i
                       for i, c in enumerate(coeffs))
            disc = Poly(k, [a % p for a in reversed(sympy.Poly(
                sympy.discriminant(lift, x), t).all_coeffs())])
            if not coeffs[0] or not disc:
                continue
            g = Poly(v.field, [v.field.coerce(Poly(k, c)) for c in coeffs])
            factors = one_step_tame(v, g)
            if factors is None:
                continue
            assert_discriminant_identity(v, g, split_order(disc, pi)[0],
                                         factors)
            checked += 1
            seen["index"] += ore_index(v, g) > 0
            seen["ramified"] += any(lf.e > 1 for lf in factors)
    assert min(seen.values()) >= 5, seen


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


def rand_irreducible_mod(rng, p, n):
    """Coefficients of a random monic irreducible of degree n over GF(p)."""
    while True:
        phi = [rng.randrange(p) for _ in range(n)] + [1]
        if [h.degree for h, _ in gf.factor(Poly(GF(p), phi))[1]] == [n]:
            return phi


def test_split_enumerates_no_field(monkeypatch):
    # a seeded sweep of splits whose residue extensions adjoin roots of
    # degree up to 13, with every enumeration of a finite field refused
    def refuse(field):
        raise AssertionError(f"{field} enumerated")

    wide = []

    def counted(real):
        def extend(field, psi):
            wide.append(psi.degree > 1)
            return real(field, psi)
        return extend

    monkeypatch.setattr(gf.FiniteField, "elements", refuse)
    for module in (localsplit, inductive):
        monkeypatch.setattr(module, "extend_residue",
                            counted(module.extend_residue))
    rng = random.Random(2113)
    cases = [(V2, Poly(QQ, [1, 1, 1])), (V3, Poly(QQ, [1, 0, 1]))]
    for v in (V2, V3):
        cases += [(v, rand_monic_squarefree(rng, max_deg=5))
                  for _ in range(8)]
    y = GF(2, 2).element([0, 1])
    for v in (BaseValuation.pi_adic(GF(3), [1, 0, 1]),
              BaseValuation.pi_adic(GF(2, 2), [y, 1, 1])):
        K = v.field
        for _ in range(6):
            while True:
                g = Poly(K, [K.coerce(Poly(K.base, [rng.randrange(K.base.q)
                                                    for _ in range(3)]))
                             for _ in range(rng.randint(2, 4))] + [K.one])
                if _is_squarefree(g):
                    break
            cases.append((v, g))
    for p, n in ((2, 13), (3, 8)):
        phi = Poly(QQ, rand_irreducible_mod(rng, p, n))
        cases.append((BaseValuation.padic(p), phi * phi + p))
    for v, g in cases:
        factors = split_extensions(v, g)
        assert sum(lf.e * lf.f for lf in factors) == g.degree
    assert sum(wide) >= 4


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


def in_x_to_the_p(h):
    """h(x^p) for h over k(t), p the characteristic."""
    p = h.field.characteristic
    coeffs = [h.field.zero] * (p * h.degree + 1)
    coeffs[::p] = h.coeffs
    return Poly(h.field, coeffs)


def hard_kt_inputs(rng, K, max_deg):
    """Inputs over K = k(t), k finite, that no image certifies: g times
    t^q - t, which vanishes at every point of k, so every image of G loses
    its degree; h^p, a polynomial in x^p that is not squarefree; and h(x^p),
    often squarefree but inseparable."""
    vanish = K.t ** K.base.q - K.t
    g = rand_kt_poly(rng, K, rng.randint(1, max_deg))
    h = rand_kt_poly(rng, K, rng.randint(1, 2))
    return [g * vanish, h ** K.characteristic, in_x_to_the_p(h)]


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
    if k.characteristic:
        for _ in range(4):
            for g in hard_kt_inputs(rng, K, max_deg):
                assert _is_squarefree(g) == squarefree_by_ratfunc_euclid(g), g


def test_squarefree_gate_fixed_cases():
    cases = []
    for k in (GF(2), GF(3), GF(5), GF(2, 2)):
        K = FunctionField(k)
        t, x = K.t, Poly.x(K)
        p = K.characteristic
        vanish = t ** k.q - t  # zero at every point of k
        cases += [
            ((x - 1 / vanish) * (x + t), True),              # lc(G) = vanish
            ((x - 1 / vanish) ** 2 * (x + t), False),
            (x * (x - vanish), True),                        # image x^2
            ((x ** 2 + x * t + K.one) ** p, False),         # h(x^p)
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
    # 30030 = 2*3*5*7*11*13: the first six primes drop lc(G) or keep x^2
    x, c = Poly.x(QQ), F(1, 30030)
    inputs += [(x - c) * (x + 1), (x - c) ** 2 * (x + 1), x * (x - 30030)]
    verdicts = []
    for g in inputs:
        expected = squarefree_over_q_by_euclid(g)
        assert _is_squarefree(g) == expected, g
        verdicts.append(expected)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 90


# -- the squarefree certificate ---------------------------------------------

CERTIFICATE_FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), QQ]


@pytest.mark.parametrize("k", CERTIFICATE_FIELDS, ids=repr)
def test_squarefree_certificate_matches_euclid(k, monkeypatch):
    """With a PRS that never finds a trivial gcd, _is_squarefree says True
    only on a certificate; the oracle must say True on each of those."""
    monkeypatch.setattr(localsplit, "primitive_gcd", lambda a, b: [a, b])
    rng = random.Random(f"certificate:{k!r}")
    certified = 0
    for _ in range(40):
        if k is QQ:
            bound, rational = rng.choice([(20, False), (20, True),
                                          (2 ** 80, True)])
            h = rand_q_monic(rng, rng.randint(1, 2), bound, rational)
            inputs = [rand_q_monic(rng, rng.randint(1, 6), bound, rational)]
            non_squarefree = [
                h * h * rand_q_monic(rng, rng.randint(0, 3), bound, rational),
                qp_non_squarefree(rng)]
            oracle = squarefree_over_q_by_euclid
        else:
            K = FunctionField(k)
            h = rand_kt_poly(rng, K, rng.randint(1, 2))
            inputs = ([rand_kt_poly(rng, K, rng.randint(1, 4))]
                      + hard_kt_inputs(rng, K, 4))
            non_squarefree = [h * h * rand_kt_poly(rng, K, rng.randint(0, 2))]
            oracle = squarefree_by_ratfunc_euclid
        for g in inputs:
            if _is_squarefree(g):
                certified += 1
                assert oracle(g), g
        for g in non_squarefree:
            assert not _is_squarefree(g), g
    assert certified >= 20


def ft_split_poly(rng, q, degree):
    """Monic g over F_q(t) shaped like the ft_split workload's: coefficients
    in F_q[t] of degree <= 3, drawn until g(a, x) is squarefree for some a
    in F_q."""
    k = GF(q)
    while True:
        g = [Poly(k, [rng.randrange(q) for _ in range(4)])
             for _ in range(degree)] + [Poly.one(k)]
        for a in range(q):
            image = Poly(k, [c(a) for c in g])
            if poly_gcd(image, image.derivative()).degree == 0:
                return g


def test_squarefree_certificate_skips_prs_on_ft_split(monkeypatch):
    calls = []
    prs = localsplit.primitive_gcd

    def counted(a, b):
        calls.append(1)
        return prs(a, b)

    monkeypatch.setattr(localsplit, "primitive_gcd", counted)
    rng = random.Random("ft_split")
    for q in (2, 3, 5):
        v = vt_over(q)
        for degree in range(2, 6):
            for _ in range(3):
                factors = split_extensions(v, ft_split_poly(rng, q, degree))
                assert sum(lf.degree for lf in factors) == degree
    assert not calls
    for _ in range(5):
        assert not _is_squarefree(qp_non_squarefree(rng))
    assert len(calls) >= 5


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
