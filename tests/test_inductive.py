"""Tests for the inductive-valuation tower machinery."""

import random
from fractions import Fraction as F

import pytest

from valknaf.gf import GF
from valknaf.inductive import INFINITY, Tower, phi_expansion
from valknaf.localsplit import BaseValuation
from valknaf.poly import Poly, QQ

from oracles import canonical_exps_by_search, normalize_exps_by_steps


def make_wild_tower():
    """Depth-3 tower over v_2 (the one isolating x^4 + 8x^2 + 4)."""
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


def make_big_integer_tower():
    """Depth-2 tower over the t-adic valuation on Q(t), residue roots > 2^53."""
    vt = BaseValuation.pi_adic(QQ, [0, 1])
    a = 12345678901234567891
    t1 = Tower(vt).augment(Poly.x(vt.field), F(1, 2), Poly(QQ, [-a, 1]))
    t2 = t1.augment(t1.lift_key(), F(3, 2), Poly(QQ, [-a * a - 1, 1]))
    return t2, t2.lift_key()


TOWERS = [make_wild_tower, make_tame_tower, make_funcfield_tower,
          make_mixed_tower, make_big_integer_tower]


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


def test_tower_bookkeeping():
    tower, key = make_wild_tower()
    assert tower.depth == 3
    assert tower.ramification_product() == 2
    assert tower.residue_product() == 1
    assert key.degree == 2
    # assigned values are reproduced by the expansion-based evaluation
    assert tower.val(tower.levels[0].phi) == F(1, 2)
    assert tower.val(tower.levels[1].phi) == F(3, 2)
    assert tower.val(tower.levels[2].phi) == F(2)
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
                coeffs.append(field.from_coeff_lists(num))
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
    den = tower.denom_at(k)
    elements = [x for x in kappa.elements() if x] if hasattr(kappa, "elements") else None
    for _ in range(30):
        r = (rng.choice(elements) if elements
             else F(rng.randint(1, 9), rng.randint(1, 4)))
        w = F(rng.randint(-6, 6), den)
        lifted = tower.lift_at(k, r, w)
        assert tower.val(lifted) == w
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
    den = tower.denom_at(k)
    pi = Poly.constant(tower.base.field,
                       tower.base.field.coerce(tower.base.uniformizer))
    elements = [x for x in kappa.elements() if x] if hasattr(kappa, "elements") else None
    for _ in range(15):
        r = (rng.choice(elements) if elements
             else F(rng.randint(1, 9), rng.randint(1, 4)))
        w = F(rng.randint(-4, 4), den)
        f = tower.lift_at(k, r, w)
        g = f * pi
        assert tower.val(g) == w + 1
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


@pytest.mark.parametrize("maker", TOWERS)
def test_canonical_exps_match_search(maker):
    tower, _ = maker()
    rng = random.Random(40417)
    for i in range(tower.depth + 1):
        den = tower.denom_at(i)
        for _ in range(60):
            w = F(rng.randint(-5 * den, 5 * den), den)
            assert tower.canonical_exps(i, w) == canonical_exps_by_search(
                tower, i, w), (i, w)
        if i < tower.depth and tower.levels[i].e > 1:
            outside = F(1, tower.denom_at(i + 1))
            with pytest.raises(ValueError):
                tower.canonical_exps(i, outside)
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
