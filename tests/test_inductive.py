"""Tests for the inductive-valuation tower machinery."""

import math
import random
from fractions import Fraction as F

import pytest

from valknaf import inductive, residuefield
from valknaf.funcfield import FunctionField, RatFunc
from valknaf.gf import GF
from valknaf.inductive import INFINITY, Tower, phi_expansion
from valknaf.localsplit import (BaseValuation, _is_squarefree,
                                split_extensions)
from valknaf.poly import Poly, QQ, power
from valknaf.residuefield import factor_over

from oracles import (_lower_hull, _segment_residual, augment_appending,
                     canonical_exps_by_search, edge_bound, lift_key_reference,
                     normalize_exps_by_steps, phi_expansion_by_poly_division,
                     segment_residual,
                     split_extensions_sorted, tower_reduce_at, tower_val,
                     value_units, z_by_embeddings)


def make_wild_tower():
    """Three augmentations over v_2 (the ones isolating x^4 + 8x^2 + 4);
    the middle level has e = f = 1, so the optimal chain has depth 2."""
    v2 = BaseValuation.padic(2)
    F2 = GF(2, 1)
    T_plus_1 = Poly(F2, [1, 1])
    t0 = Tower(v2)
    t1 = t0.augment(Poly.x(QQ), F(1, 2), T_plus_1)
    k1 = t1.lift_key()
    t2 = t1.augment(k1, F(3, 2), T_plus_1)
    k2 = t2.lift_key()
    t3 = t2.augment(k2, F(2), T_plus_1)
    return t3, t3.lift_key()


def make_tame_tower():
    """Depth-1 tower with residue growth over v_5."""
    v5 = BaseValuation.padic(5)
    F5 = GF(5, 1)
    psi = Poly(F5, [3, 0, 1])  # T^2 + 3, irreducible over F_5
    t1 = Tower(v5).augment(Poly.x(QQ), F(1), psi)
    return t1, t1.lift_key()


def make_funcfield_tower():
    """Depth-1 ramified tower over the t-adic valuation on F_3(t)."""
    vt = BaseValuation.pi_adic(GF(3, 1), [0, 1])
    psi = Poly(GF(3, 1), [2, 1])  # T - 1
    t1 = Tower(vt).augment(Poly.x(vt.field), F(1, 2), psi)
    return t1, t1.lift_key()


def make_mixed_tower():
    """Depth-2 tower over v_5 with e = 3, then e = 4 and residue growth."""
    v5 = BaseValuation.padic(5)
    F5 = GF(5, 1)
    t1 = Tower(v5).augment(Poly.x(QQ), F(1, 3), Poly(F5, [3, 1]))  # T - 2
    t2 = t1.augment(t1.lift_key(), F(5, 4), Poly(F5, [3, 0, 1]))  # T^2 + 3
    return t2, t2.lift_key()


def make_carry_tower():
    """Depth-2 tower over v_5 with e = 2 twice: the level-2 monomial Q_2 =
    5^2 * x carries onto z_1 = 2, so the units of level-2 classes are not 1."""
    v5 = BaseValuation.padic(5)
    F5 = GF(5, 1)
    t1 = Tower(v5).augment(Poly.x(QQ), F(1, 2), Poly(F5, [3, 1]))  # T - 2
    t2 = t1.augment(t1.lift_key(), F(5, 4), Poly(F5, [3, 0, 1]))  # T^2 + 3
    return t2, t2.lift_key()


def make_big_integer_tower():
    """Depth-2 tower over the t-adic valuation on Q(t), residue roots > 2^53."""
    vt = BaseValuation.pi_adic(QQ, [0, 1])
    a = 12345678901234567891
    t1 = Tower(vt).augment(Poly.x(vt.field), F(1, 2), Poly(QQ, [-a, 1]))
    t2 = t1.augment(t1.lift_key(), F(3, 2), Poly(QQ, [-a * a - 1, 1]))
    return t2, t2.lift_key()


TOWERS = [make_wild_tower, make_tame_tower, make_funcfield_tower,
          make_mixed_tower, make_carry_tower, make_big_integer_tower]


def level_denom(tower, i):
    """D_i = e_1 * ... * e_i: the values of level i lie in (1/D_i) Z."""
    return tower.levels[i - 1].denom if i else 1


def test_phi_expansion_reassembles():
    rng = random.Random(20240818)
    phi = Poly(QQ, [2, 1, 0, 1])
    for _ in range(20):
        f = Poly(QQ, [F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rng.randint(0, 9))])
        digits = phi_expansion(f, phi)
        acc = Poly.zero(QQ)
        for j in reversed(range(len(digits))):
            acc = acc * phi + digits[j]
        assert acc == f
        assert all(d.degree < phi.degree for d in digits)


def expansion_field(name, rng):
    """(field, draw): a coefficient field of the walk and a random element."""
    if name == "QQ":
        return QQ, lambda: F(rng.randint(-9, 9), rng.choice([1, 1, 2, 9]))
    if name.startswith("GF"):
        field = GF(*map(int, name[3:-1].split("^")))
        return field, lambda: rng.randrange(field.q)
    k = QQ if name == "Q(t)" else GF(3)
    K = FunctionField(k)

    def tpoly(nonzero):
        while True:
            f = Poly(k, [k.coerce(rng.randint(-2, 2))
                         for _ in range(rng.randint(1, 3))])
            if f or not nonzero:
                return f

    return K, lambda: RatFunc(K, tpoly(False), tpoly(True))


@pytest.mark.parametrize("name", ["QQ", "GF(7)", "GF(3^4)", "GF(2^5)",
                                  "F3(t)", "Q(t)"])
def test_phi_expansion_in_x_divides_nothing(monkeypatch, name):
    # in base x the digits are the coefficients, as the division path gives
    # them, and no remainder loop runs; any other base still divides
    rng = random.Random(f"x-adic digits:{name}")
    field, draw = expansion_field(name, rng)
    divisions = []
    preduce = inductive._preduce

    def counted(*args):
        divisions.append(1)
        return preduce(*args)

    monkeypatch.setattr(inductive, "_preduce", counted)
    x = Poly.x(field)
    for degree in [-1, 0, 1] + [rng.randint(2, 9) for _ in range(12)]:
        f = Poly(field, [draw() for _ in range(degree + 1)])
        digits = phi_expansion(f, x)
        assert digits == phi_expansion_by_poly_division(f, x)
        assert all(d.degree < 1 for d in digits)
    assert not divisions
    c = next(c for c in iter(draw, None) if c and c != field.one)
    for key in (x + Poly.constant(field, c), x * c):
        f = Poly(field, [draw() for _ in range(6)])
        assert phi_expansion(f, key) == phi_expansion_by_poly_division(f, key)
    assert divisions


def test_depth0_takes_classes_as_they_are(monkeypatch):
    # with no level to carry onto, a depth-0 residual coefficient is the
    # class itself: no unit, canonical monomial or carry is computed
    calls = []

    def counting(name):
        method = getattr(Tower, name)

        def counted(self, *args):
            calls.append(name)
            return method(self, *args)
        return counted

    for name in ("unit_at", "canonical_exps", "normalize_exps"):
        monkeypatch.setattr(Tower, name, counting(name))
    v3, x = BaseValuation.padic(3), Poly.x(QQ)
    vt = BaseValuation.pi_adic(GF(3), [0, 1])
    xt, t = Poly.x(vt.field), vt.field.t
    for v, g, efd in ((v3, x ** 4 - 9 * x + 3, [(4, 1, 4)]),
                      (v3, x ** 3 + 2 * x + 1, [(1, 3, 3)]),
                      (v3, (x ** 2 + 9) * (x - 3), [(1, 1, 1), (1, 2, 2)]),
                      (vt, xt ** 3 - t, [(3, 1, 3)]),
                      (vt, (xt ** 2 - t) * (xt + 1), [(2, 1, 2), (1, 1, 1)])):
        assert [(lf.e, lf.f, lf.degree)
                for lf in split_extensions(v, g)] == efd, g
        list(Tower(v).edges(phi_expansion(g, Poly.x(v.field))))
    assert not calls
    # a level above depth 0 still carries
    tower, _ = make_carry_tower()
    tower.reduce_at(2, tower.levels[1].phi ** 2)
    assert calls


def test_tower_bookkeeping():
    # k1 (degree 2, value 3/2) got e = f = 1, so k2, of the same degree,
    # replaced its level: the optimal chain is x -> 1/2, k2 -> 2
    tower, key = make_wild_tower()
    assert tower.depth == 2
    assert [lev.phi.degree for lev in tower.levels] == [1, 2]
    assert tower.denom == 2
    assert tower.residue_product() == 1
    assert key.degree == 2
    # assigned values are reproduced by the expansion-based evaluation,
    # the replaced key's among them
    k1 = Tower(tower.base, tower.levels[:1]).lift_key()
    assert k1.degree == 2 and k1 != tower.levels[1].phi
    assert tower.val(tower.levels[0].phi) == F(1, 2)
    assert tower.val(k1) == F(3, 2)
    assert tower.val(tower.levels[1].phi) == F(2)
    # the lifted key's value is e*f*mu under the augmented tower
    lev = tower.levels[-1]
    assert tower.val(key) == lev.e * lev.f * lev.mu


@pytest.mark.parametrize("maker", TOWERS)
def test_valuation_axioms(maker):
    tower, _ = maker()
    field = tower.base.field
    rng = random.Random(99173)

    def rand_poly():
        deg = rng.randint(0, 4)
        coeffs = []
        for _ in range(deg + 1):
            if field is QQ:
                coeffs.append(F(rng.randint(-6, 6), rng.randint(1, 3)))
            else:
                num = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
                coeffs.append(field.coerce(Poly(field.base, num)))
        return Poly(field, coeffs)

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        vf, vg = tower.val(f), tower.val(g)
        assert tower.val(f * g) == vf + vg
        if not (f + g).is_zero():
            assert tower.val(f + g) >= min(vf, vg)
        else:
            assert (f + g).is_zero()


@pytest.mark.parametrize("maker", TOWERS)
def test_reduce_lift_round_trip(maker):
    tower, key = maker()
    rng = random.Random(55331)
    k = tower.depth
    kappa = tower.field_at(k)
    elements = [x for x in kappa.elements() if x] if hasattr(kappa, "elements") else None
    for _ in range(30):
        r = (rng.choice(elements) if elements
             else F(rng.randint(1, 9), rng.randint(1, 4)))
        w = rng.randint(-6, 6)  # in units of 1/D, here the level-k unit
        lifted = tower.lift_at(k, r, w)
        assert tower.val(lifted) == F(w, tower.denom)
        assert lifted.degree < key.degree
        assert tower.reduce_at(k, lifted) == r


@pytest.mark.parametrize("maker", TOWERS)
def test_reduce_respects_graded_multiplication(maker):
    # [f] = r * M_w and [pi * f] = r * M_(w+1): scaling by the uniformizer
    # shifts the value by 1 and keeps the reduced class fixed.
    tower, key = maker()
    rng = random.Random(7241)
    k = tower.depth
    kappa = tower.field_at(k)
    pi = Poly.constant(tower.base.field,
                       tower.base.field.coerce(tower.base.uniformizer))
    elements = [x for x in kappa.elements() if x] if hasattr(kappa, "elements") else None
    for _ in range(15):
        r = (rng.choice(elements) if elements
             else F(rng.randint(1, 9), rng.randint(1, 4)))
        w = rng.randint(-4, 4)
        f = tower.lift_at(k, r, w)
        g = f * pi
        assert tower.val(g) == F(w, tower.denom) + 1
        assert tower.reduce_at(k, g) == r


def test_lift_key_value_and_degree():
    for maker in TOWERS:
        tower, key = maker()
        lev = tower.levels[-1]
        assert key.is_monic()
        assert key.degree == lev.phi.degree * lev.e * lev.f
        # by construction the augmented tower gives the key value e*f*mu,
        # strictly more than the tower below does whenever e*f > 1
        assert tower.val(key) == lev.e * lev.f * lev.mu
        if tower.depth >= 2 and lev.e * lev.f > 1:
            below = Tower(tower.base, tower.levels[:-1])
            assert below.val(key) < tower.val(key)


def test_stage0_values_only_for_constants():
    v2 = BaseValuation.padic(2)
    tower = Tower(v2)
    assert tower.val(Poly.constant(QQ, F(12))) == 2
    assert tower.val(Poly.zero(QQ)) == INFINITY
    with pytest.raises(ValueError):
        tower.val(Poly.x(QQ))


def test_tower_error_branches_at_zero():
    tower = Tower(BaseValuation.padic(5))
    with pytest.raises(ValueError) as exc:
        tower.reduce_at(0, Poly.zero(QQ))
    assert str(exc.value) == "cannot reduce zero"
    with pytest.raises(ValueError) as exc:
        tower.lift_at(0, 0, 0)
    assert str(exc.value) == "cannot lift zero"


@pytest.mark.parametrize("maker", TOWERS)
def test_canonical_exps_match_search(maker):
    tower, _ = maker()
    rng = random.Random(40417)
    for i in range(tower.depth + 1):
        den = level_denom(tower, i)
        for _ in range(60):
            w = F(rng.randint(-5 * den, 5 * den), den)
            assert tower.canonical_exps(i, value_units(tower, w)) == (
                canonical_exps_by_search(tower, i, w)), (i, w)
        if i < tower.depth and tower.levels[i].e > 1:
            outside = F(1, level_denom(tower, i + 1))
            with pytest.raises(ValueError):
                tower.canonical_exps(i, value_units(tower, outside))
            with pytest.raises(ValueError):
                canonical_exps_by_search(tower, i, outside)


@pytest.mark.parametrize("maker", TOWERS)
def test_normalize_exps_match_single_carries(maker):
    tower, _ = maker()
    rng = random.Random(88203)
    for i in range(tower.depth + 1):
        bounds = [4] + [3 * lev.e + 2 for lev in tower.levels[:i]]
        for _ in range(60):
            exps = [rng.randint(-b, b) for b in bounds]
            ours, ref = list(exps), list(exps)
            unit = tower.normalize_exps(i, ours)
            assert unit == normalize_exps_by_steps(tower, i, ref), (i, exps)
            assert ours == ref, (i, exps)


def first_irreducible_quadratic(field):
    """T^2 + b*T + c over a finite field, (c, b) the least pair of codes
    for which it is irreducible."""
    for c in range(1, field.q):
        for b in range(field.q):
            psi = Poly(field, [c, b, 1])
            if factor_over(field, psi) == [(psi, 1)]:
                return psi


def make_wide_tower(v, lams):
    """Tower over v, x -> lams[0] then lift_key -> lams[i], each level
    adjoining a root of the first irreducible quadratic: kappa_i is
    GF(q^(2^i)), so z_1 reaches kappa_2 and above through an embedding
    that moves its code."""
    tower = Tower(v)
    key = Poly.x(v.field)
    for lam in lams:
        psi = first_irreducible_quadratic(tower.field_at(tower.depth))
        tower = tower.augment(key, lam, psi)
        key = tower.lift_key()
    return tower, key


WIDE = {
    "Q_2 depth 3": lambda: make_wide_tower(
        BaseValuation.padic(2), [F(1, 2), F(9, 4), F(37, 4)]),
    "Q_3 depth 2": lambda: make_wide_tower(
        BaseValuation.padic(3), [F(1, 3), F(13, 6)]),
    "F_3(t) depth 2": lambda: make_wide_tower(
        BaseValuation.pi_adic(GF(3), [0, 1]), [F(1, 2), F(9, 4)]),
}


@pytest.mark.parametrize("name", WIDE)
def test_z_images_carry_through_embeddings(name):
    # kappa_1 = GF(p^2): at each level i >= 2 a carry at j = 1 multiplies
    # by the image of z_1 in kappa_i, which the embeddings move off z_1's
    # own code.  Units of carries up and down, alone and mixed with the
    # levels above, and of unit_at, against the oracle that chains each
    # level's embedding itself; then lift_at and reduce_at round trips
    tower, key = WIDE[name]()
    rng = random.Random(27191)
    e1 = tower.levels[0].e
    assert tower.field_at(1).n == 2 and e1 > 1
    for i in range(2, tower.depth + 1):
        assert z_by_embeddings(tower, 1, i) != tower.levels[0].ext.root
        den = level_denom(tower, i)
        bounds = [4] + [3 * lev.e + 2 for lev in tower.levels[:i]]
        single = [[0, s * e1 + 1] + [0] * (i - 1) for s in (-2, -1, 1, 2)]
        for exps in single + [[rng.randint(-b, b) for b in bounds]
                              for _ in range(60)]:
            ours, ref = list(exps), list(exps)
            unit = tower.normalize_exps(i, ours)
            assert unit == normalize_exps_by_steps(tower, i, ref), (i, exps)
            assert ours == ref, (i, exps)
        for _ in range(30):
            w = rng.randint(-4 * den, 4 * den) * (tower.denom // den)
            q_exps = tower.canonical_exps(
                i, rng.randint(-den, den) * (tower.denom // den))
            t = rng.randint(-3, 3)
            ref = canonical_exps_by_search(tower, i, F(w, tower.denom))
            ref = [a + t * q for a, q in zip(ref, q_exps)]
            assert tower.unit_at(i, w, q_exps, t) == (
                normalize_exps_by_steps(tower, i, ref)), (i, w, q_exps, t)
        for _ in range(10):
            r = random_residue(rng, tower, i)
            w = rng.randint(-4 * den, 4 * den) * (tower.denom // den)
            lifted = tower.lift_at(i, r, w)
            assert tower.val(lifted) == F(w, tower.denom)
            assert lifted.degree < next_key_degree(tower, key, i)
            assert tower.reduce_at(i, lifted) == r
            assert tower_reduce_at(tower, i, lifted) == r


def random_poly(rng, tower, degree):
    """Random polynomial over the tower's base field of degree at most
    degree, each coefficient a small element times pi^m, m in -2..3."""
    field, pi = tower.base.field, tower.base.uniformizer
    coeffs = []
    for _ in range(degree + 1):
        if field is QQ:
            c = field.coerce(F(rng.randint(-9, 9), rng.randint(1, 4)))
        else:
            c = field.coerce(Poly(field.base, [
                rng.randint(0, 2) for _ in range(rng.randint(1, 3))]))
        coeffs.append(field.mul(c, power(field, pi, rng.randint(-2, 3))))
    return Poly(field, coeffs)


def random_residue(rng, tower, i):
    kappa = tower.field_at(i)
    if hasattr(kappa, "q"):
        return rng.randrange(1, kappa.q)
    return F(rng.randint(1, 9), rng.randint(1, 4))


def next_key_degree(tower, key, i):
    return tower.levels[i].phi.degree if i < tower.depth else key.degree


@pytest.mark.parametrize("maker", TOWERS)
def test_graded_pass_matches_reference(maker):
    # at every level, for f of degree below deg phi_(i+1): random ones and
    # lifts (whose digits all attain the value) plus a random tail
    tower, key = maker()
    rng = random.Random(61129)
    den = tower.denom
    for i in range(tower.depth + 1):
        bound = next_key_degree(tower, key, i)
        for _ in range(25):
            f = random_poly(rng, tower, rng.randrange(bound))
            if rng.random() < 0.5:
                w = rng.randint(-4 * den, 4 * den) * (
                    den // level_denom(tower, i))
                lifted = tower.lift_at(i, random_residue(rng, tower, i), w)
                f = lifted + f * Poly.constant(
                    f.field, power(f.field, tower.base.uniformizer, 6))
            if f.is_zero():
                continue
            value, parts = tower.grade(i, f)
            assert F(value, den) == tower_val(tower, i, f), (i, f)
            assert tower.residue(i, parts) == tower_reduce_at(tower, i, f), (
                i, f)
            assert tower.reduce_at(i, f) == tower_reduce_at(tower, i, f)


def reference_edges(tower, digits):
    """The edges `Tower.edges` gives for digits, by the hull, the bound and
    the residual of tests/oracles.py, and the number the bound skips."""
    grades = {j: tower.grade(tower.depth, d) for j, d in enumerate(digits)
              if not d.is_zero()}
    bound = edge_bound(tower)
    edges, skipped = [], 0
    for (x1, y1), (x2, y2) in _lower_hull(
            [(j, v) for j, (v, _) in grades.items()]):
        common = math.gcd(y1 - y2, x2 - x1)
        num, e = (y1 - y2) // common, (x2 - x1) // common
        if bound is not None and num <= e * bound:
            skipped += 1
            continue
        edges.append((x1, x2, F(-num, e * tower.denom), e,
                      _segment_residual(tower, grades, num, e, x1, x2)))
    return edges, skipped


@pytest.mark.parametrize("maker", TOWERS)
def test_segment_residual_matches_reference(maker):
    # every edge of Tower.edges, (x1, x2, slope, e, residual), against the
    # references, and every edge of the hull, skipped ones included, against
    # the Fraction oracle: for random G in the tower's key, plus one whose
    # only edge lies below the key's own value, and at depth 0 for a
    # random g, whose digits in x are its coefficients
    tower, key = maker()
    rng = random.Random(30853)
    k, den = tower.depth, tower.denom
    base = Tower(tower.base)
    field, pi = tower.base.field, tower.base.uniformizer
    below = key ** 2 + Poly.constant(field, field.inv(pi))
    skipped = 0
    for n in range(9):
        G = below if n == 8 else sum(
            (random_poly(rng, tower, key.degree - 1) * key ** j
             for j in range(rng.randint(1, 4))), key ** 4)
        digits = phi_expansion(G, key)
        edges, skips = reference_edges(tower, digits)
        assert list(tower.edges(digits)) == edges
        skipped += skips
        vals = {j: tower_val(tower, k, d) for j, d in enumerate(digits)
                if not d.is_zero()}
        grades = {j: tower.grade(k, d) for j, d in enumerate(digits)
                  if not d.is_zero()}
        for (x1, y1), (x2, y2) in _lower_hull(
                [(j, v) for j, (v, _) in grades.items()]):
            lam = F(y1 - y2, (x2 - x1) * den)
            num, e = (lam * den).numerator, (lam * den).denominator
            assert (_segment_residual(tower, grades, num, e, x1, x2)
                    == segment_residual(tower, digits, vals, lam, x1, x2))
        if n == 8:
            continue

        g = random_poly(rng, tower, rng.randint(1, 6))
        g = g + Poly.x(g.field) ** (g.degree + 1)
        if not g[0]:
            continue
        digits = [Poly.constant(g.field, c) for c in g.coeffs]
        edges, skips = reference_edges(base, digits)
        assert list(base.edges(digits)) == edges and not skips
        assert list(base.edges(phi_expansion(g, Poly.x(g.field)))) == edges
        vals = {j: tower.base.value_of(c) for j, c in enumerate(g.coeffs)
                if c}
        for x1, x2, slope, _, residual in edges:
            assert residual == segment_residual(base, digits, vals, -slope,
                                                x1, x2)
    assert skipped


def test_split_engine_grades_on_integers(monkeypatch):
    # once a polynomial is expanded, its values, classes and residual
    # polynomials are computed on ints: the one Fraction an edge makes is
    # its slope
    g = Poly(QQ, [4, 0, 8, 0, 1])
    deep, key = make_wild_tower()
    towers = {"depth 0": (Tower(BaseValuation.padic(2)), Poly.x(QQ)),
              "depth 2": (deep, key)}
    digits = {name: phi_expansion(g, k) for name, (_, k) in towers.items()}
    new = F.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts, results = {}, {}
    monkeypatch.setattr(F, "__new__", counting)
    for name, (tower, _) in towers.items():
        made.clear()
        results[name] = list(tower.edges(digits[name]))
        counts[name] = len(made)
    monkeypatch.undo()
    assert counts == {name: len(results[name]) for name in towers}
    assert [edge[4] for edge in results["depth 0"]] == [
        Poly(GF(2, 1), [1, 0, 1])]
    for name, (tower, _) in towers.items():
        vals = {j: tower_val(tower, tower.depth, d)
                for j, d in enumerate(digits[name]) if not d.is_zero()}
        bound = edge_bound(tower)
        hull = _lower_hull([(j, v * tower.denom) for j, v in vals.items()])
        lams = [F(y1 - y2, (x2 - x1) * tower.denom)
                for (x1, y1), (x2, y2) in hull]
        assert [edge[2:] for edge in results[name]] == [
            (-lam, (lam * tower.denom).denominator,
             segment_residual(tower, digits[name], vals, lam, x1, x2))
            for ((x1, _), (x2, _)), lam in zip(hull, lams)
            if bound is None or lam * tower.denom > bound]


def test_split_engine_lifts_on_integers(monkeypatch):
    # lift_key and the lift_at it calls step through values as ints; the
    # Q(t) tower is left out, its Q coefficients are Fractions by right
    makers = [make_wild_tower, make_tame_tower, make_funcfield_tower,
              make_mixed_tower, make_carry_tower]
    towers = {maker.__name__: maker() for maker in makers}
    new = F.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts, keys = {}, {}
    monkeypatch.setattr(F, "__new__", counting)
    for name, (tower, _) in towers.items():
        made.clear()
        keys[name] = tower.lift_key()
        counts[name] = len(made)
    monkeypatch.undo()
    assert counts == {name: 0 for name in towers}
    assert keys == {name: key for name, (_, key) in towers.items()}


def sweep_inputs(rng, v, count):
    """count monic squarefree g = h^m + pi^k * u over v's field, h monic
    of degree 1-3 and u of lower degree with constant coefficients: close
    to a power of h, so the split engine augments, often with deg psi > 1."""
    K = v.field
    if K is QQ:
        def const():
            return K.coerce(rng.randint(-3, 3))
    else:
        def const():
            return K.coerce(Poly(K.base, [rng.randrange(K.base.q)]))
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        h = Poly(K, [const() for _ in range(d)] + [K.one])
        u = Poly(K, [const() for _ in range(rng.randint(1, 2 * d))])
        pi_k = Poly.constant(K, power(K, v.uniformizer, rng.randint(1, 3)))
        g = h ** rng.choice((2, 2, 3)) + u * pi_k
        if _is_squarefree(g):
            out.append(g)
    return out


def test_lift_key_matches_reference(monkeypatch):
    # the single lift of -[phi^(e*f)] against the loop over psi's
    # coefficients, and the optimal chain against the tower that appends
    # every level, on the test towers and on every augmentation a seeded
    # split sweep over Q_2, Q_3, F_3(t) and GF(4)(t) makes; the makers of
    # the test towers augment 11 times in all
    made, appending, current = [], {}, [None]
    augment = Tower.augment

    def capturing(self, phi, lam, psi):
        tower = augment(self, phi, lam, psi)
        assert self in appending or self.depth == 0
        ref = augment_appending(appending.get(self, self), phi, lam, psi)
        appending[tower] = ref
        made.append((tower, ref, psi, current[0]))
        return tower

    monkeypatch.setattr(Tower, "augment", capturing)
    for maker in TOWERS:
        maker()
    towers = len(made)
    assert towers == 11
    rng = random.Random(70411)
    bases = [BaseValuation.padic(2), BaseValuation.padic(3),
             BaseValuation.pi_adic(GF(3), [0, 1]),
             BaseValuation.pi_adic(GF(2, 2), [0, 1])]
    for v in bases:
        for g in sweep_inputs(rng, v, 40):
            current[0] = g
            split_extensions(v, g)
    monkeypatch.undo()
    assert len(made) - towers >= 150
    assert sum(psi.degree > 1 for _, _, psi, _ in made[towers:]) >= 30
    # 30 of the towers left out a level with e*f = 1
    assert sum(ref.depth > tower.depth for tower, ref, _, _ in made) >= 30
    for tower, ref, psi, g in made:
        key = tower.lift_key()
        assert key == lift_key_reference(tower, psi) == ref.lift_key(), psi
        for d in phi_expansion(g, key) if g is not None else ():
            if not d.is_zero():
                assert tower.val(d) == ref.val(d), (g, key)
        # key degrees strictly increase, and only the top level may have
        # e*f = 1
        degrees = [lev.phi.degree for lev in tower.levels]
        assert degrees == sorted(set(degrees)), degrees
        assert all(lev.e * lev.f >= 2 for lev in tower.levels[:-1])


def test_decomposer_built_on_first_use(monkeypatch):
    # an extension inverts its F_p basis only when an element is
    # decomposed, once; lift_key reads psi's coefficients, so a
    # phi^2 + 3u split over Q at 3 with phi of degree 5 mod 3 (the
    # wide_residue shape), whose two augmentations adjoin a root of phi,
    # inverts none
    calls = []
    real = residuefield.linear_decomposer

    def counting(field, basis):
        calls.append(field)
        return real(field, basis)

    monkeypatch.setattr(residuefield, "linear_decomposer", counting)
    k3 = GF(3)
    ext = residuefield.extend_residue(k3, Poly(k3, [1, 2, 0, 1]))
    assert calls == []
    assert ext.decompose(ext.root) == [0, 1, 0]
    assert ext.decompose(ext.new_field.one) == [1, 0, 0]
    assert calls == [ext.new_field]
    calls.clear()
    v3 = BaseValuation.padic(3)
    phi = Poly(QQ, [1, 0, 0, 2, 1, 1])  # x^5 + x^4 + 2x^3 + 1
    phi_bar = Poly(k3, phi.coeffs)
    assert factor_over(k3, phi_bar) == [(phi_bar, 1)]
    g = phi * phi + Poly.constant(QQ, 3)
    factors = split_extensions(v3, g)
    assert calls == []
    assert [(lf.e, lf.f) for lf in factors] == [(2, 5)]
    assert factors == split_extensions_sorted(v3, g)
