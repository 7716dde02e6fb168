"""Invariants (e, f, eps, d) and the finite-type verdict."""

import random
from fractions import Fraction

import pytest

from oracles import frobenius_defect_reference
from valknaf import ordgroup, raminv
from valknaf.fixtures import fixture
from valknaf.ordgroup import LexGroup, initial_set
from valknaf.raminv import (ExtensionInvariants, defect, frobenius_defect,
                            knaf_decide, ramification_index, validate)

F = Fraction

Z1 = LexGroup(1, [(1,)])
HALF = LexGroup(1, [(F(1, 2),)])


def test_totally_ramified_quadratic():
    # the shape of Q(sqrt 2) / Q at the 2-adic valuation
    inv = ExtensionInvariants(gamma_nu=Z1, gamma_omega=HALF,
                              residue_degree=1, local_degree=2,
                              residue_char=0, total_degree=2)
    assert validate(inv) == []
    assert ramification_index(inv) == 2
    assert defect(inv) == 1
    v = knaf_decide(inv)
    assert (v.e, v.f, v.eps, v.d) == (2, 1, 2, 1)
    assert v.defectless and v.initial_condition and v.eft
    assert len(initial_set(inv.gamma_omega, inv.gamma_nu)) == 2


def test_unramified_quadratic():
    inv = ExtensionInvariants(gamma_nu=Z1, gamma_omega=Z1,
                              residue_degree=2, local_degree=2,
                              residue_char=3)
    v = knaf_decide(inv)
    assert (v.e, v.f, v.eps, v.d) == (1, 2, 1, 1)
    assert v.eft


def test_defect_blocks_finite_type():
    for p in (2, 3, 5):
        inv = ExtensionInvariants(gamma_nu=Z1, gamma_omega=Z1,
                                  residue_degree=1, local_degree=p,
                                  residue_char=p)
        v = knaf_decide(inv)
        assert (v.e, v.f, v.eps, v.d) == (1, 1, 1, p)
        assert not v.defectless
        assert v.initial_condition  # eps = e = 1
        assert not v.eft


def test_defect_impossible_in_char_zero():
    inv = ExtensionInvariants(gamma_nu=Z1, gamma_omega=Z1,
                              residue_degree=1, local_degree=2,
                              residue_char=0)
    problems = validate(inv)
    assert len(problems) == 1
    assert "characteristic 0" in problems[0]
    with pytest.raises(ValueError):
        knaf_decide(inv)


def test_initial_condition_blocks_finite_type():
    # rank 2: value group grows in the first coordinate, eps stays 1 < e
    znu = LexGroup(2, [(1, 0), (0, 1)])
    gom = LexGroup(2, [(F(1, 2), 0), (0, 1)])
    inv = ExtensionInvariants(gamma_nu=znu, gamma_omega=gom,
                              residue_degree=1, local_degree=2,
                              residue_char=0)
    v = knaf_decide(inv)
    assert (v.e, v.f, v.eps, v.d) == (2, 1, 1, 1)
    assert v.defectless and not v.initial_condition and not v.eft


def test_knaf_decide_computes_one_subgroup_index(monkeypatch):
    # validate's check hands e on, and eps is the closed form on a pair of
    # finite index, so the index is computed once
    index = ordgroup.subgroup_index
    calls = []

    def counting(group, subgroup):
        calls.append((group, subgroup))
        return index(group, subgroup)

    monkeypatch.setattr(raminv, "subgroup_index", counting)
    monkeypatch.setattr(ordgroup, "subgroup_index", counting)
    inv = ExtensionInvariants(gamma_nu=LexGroup(2, [(1, 0), (0, 1)]),
                              gamma_omega=LexGroup(2, [(F(1, 2), 0),
                                                       (0, F(1, 3))]),
                              residue_degree=1, local_degree=6,
                              residue_char=0)
    v = knaf_decide(inv)
    assert (v.e, v.eps, v.d) == (6, 3, 1)
    assert len(calls) == 1
    # a rank-1 row as the split engine packages it, and the zero group
    for gamma_nu, gamma_omega, eps in (
            (LexGroup(1, [(1,)]), LexGroup(1, [(Fraction(1, 4),)]), 4),
            (LexGroup(2, []), LexGroup(2, []), 1)):
        calls.clear()
        v = knaf_decide(ExtensionInvariants(
            gamma_nu=gamma_nu, gamma_omega=gamma_omega, residue_degree=1,
            local_degree=eps, residue_char=2))
        assert v.eps == eps and len(calls) == 1


def test_validate_catches_bad_data():
    # e*f does not divide the local degree
    inv = ExtensionInvariants(gamma_nu=Z1, gamma_omega=HALF,
                              residue_degree=1, local_degree=3,
                              residue_char=0)
    assert any("does not divide" in s for s in validate(inv))
    # groups swapped: not a subgroup
    inv2 = ExtensionInvariants(gamma_nu=HALF, gamma_omega=Z1,
                               residue_degree=1, local_degree=2)
    assert any("not a subgroup" in s for s in validate(inv2))
    # infinite index
    inv3 = ExtensionInvariants(gamma_nu=LexGroup(2, [(1, 0)]),
                               gamma_omega=LexGroup(2, [(1, 0), (0, 1)]),
                               residue_degree=1, local_degree=2)
    assert any("infinite" in s for s in validate(inv3))
    # defect not a power of p
    inv4 = ExtensionInvariants(gamma_nu=Z1, gamma_omega=Z1,
                               residue_degree=1, local_degree=6,
                               residue_char=2)
    assert any("not a power" in s for s in validate(inv4))
    # local degree above the declared total degree
    inv5 = ExtensionInvariants(gamma_nu=Z1, gamma_omega=HALF,
                               residue_degree=1, local_degree=2,
                               residue_char=0, total_degree=1)
    assert any("exceeds" in s for s in validate(inv5))
    # bad residue characteristic
    inv6 = ExtensionInvariants(gamma_nu=Z1, gamma_omega=Z1,
                               residue_degree=1, local_degree=1,
                               residue_char=6)
    assert any("prime" in s for s in validate(inv6))


def test_frobenius_defect_abhyankar():
    for p in (2, 3, 5):
        assert frobenius_defect(p, Z1, 1, p) == 1
        z2 = LexGroup(2, [(1, 0), (0, 1)])
        assert frobenius_defect(p * p, z2, 1, p) == 1
        # value group and residue field share the degree
        assert frobenius_defect(p * p, Z1, p, p) == 1
        assert frobenius_defect(p * p, 1, p * p, p) == 1


def test_frobenius_defect_declared_index():
    # p-divisible value group: [Gamma : p Gamma] = 1 is declared data
    for p in (2, 3, 5):
        assert frobenius_defect(p, 1, 1, p) == p
    # a declared index is an int; anything else is refused, not truncated
    for gamma in (2.5, '2'):
        with pytest.raises(ValueError):
            frobenius_defect(4, gamma, 1, 2)


def test_frobenius_defect_errors():
    with pytest.raises(ValueError):
        frobenius_defect(4, 1, 1, 6)  # p not prime
    with pytest.raises(ValueError):
        frobenius_defect(3, Z1, 1, 2)  # 2 does not divide 3
    with pytest.raises(ValueError):
        frobenius_defect(2, 0, 1, 2)  # declared index must be >= 1


def _frobenius_case(rng):
    """Seeded arguments of frobenius_defect: LexGroups of rank 1-3 (zero,
    rank-deficient and full ones) or declared indices valid and not, primes
    and non-primes p, and degrees that are 0, negative, not divisible or the
    exact product that gives a power of p."""
    p = rng.choice((0, 1, 2, 3, 5, 6, 7))
    if rng.random() < 0.6:
        rank = rng.randint(1, 3)
        gens = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rank))
                for _ in range(rng.randint(0, rank + 1))]
        gamma = LexGroup(rank, gens)
        free_rank = len(gamma.rows)  # [gamma : p gamma] = p^free_rank
    else:
        gamma = rng.choice((0, -1, 2.5, '2', 1, 1, 2, 3, 4, 9, 25))
        free_rank = None
    kappa = rng.choice((0, -1, 1, 1, 1, 2, 3, 4, 5, 9))
    base = rng.choice((2, 3, 5, 7, max(p, 1)))
    if free_rank is not None:
        exact = base ** (free_rank + rng.randint(0, 3)) * kappa
    elif isinstance(gamma, int):
        exact = gamma * kappa * base ** rng.randint(0, 3)
    else:
        exact = 4
    k_degree = rng.choice((0, -2, rng.randint(1, 60), exact, exact, exact))
    return k_degree, gamma, kappa, p


def _outcome(f, args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


def test_frobenius_defect_matches_reference():
    rng = random.Random(38)
    outcomes = []
    for _ in range(3000):
        args = _frobenius_case(rng)
        got = _outcome(frobenius_defect, args)
        assert got == _outcome(frobenius_defect_reference, args), args
        outcomes.append(got)
    # both branches are exercised: defect 1, defects p^k > 1, and refusals
    assert outcomes.count(1) > 100
    assert sum(d not in (1, ValueError) for d in outcomes) > 50
    assert outcomes.count(ValueError) > 1000


@pytest.mark.parametrize("name", ["frobenius-abhyankar", "frobenius-defect-p"])
def test_frobenius_defect_equals_fixture(name):
    # the fixture declares Gamma_nu = iZ in Gamma_omega = Z with
    # i = [Gamma : p Gamma], f = [kappa : kappa^p] and [K : K^p]
    fx = fixture(name)
    inv, = fx.invariants()
    k, kappa, p = inv.local_degree, inv.residue_degree, inv.residue_char
    d = fx.expected[0][3]
    assert frobenius_defect(k, ramification_index(inv), kappa, p) == d
    if inv.gamma_nu == inv.gamma_omega.scale(p):  # frobenius-abhyankar
        assert frobenius_defect(k, inv.gamma_omega, kappa, p) == d


def _extension_case(rng):
    """Seeded ExtensionInvariants, consistent or not: groups of rank 1-3
    (zero, rank-deficient, full), Gamma_nu a sublattice of finite index in
    Gamma_omega, one of infinite index, a random group or one of another
    rank, and declared degrees and characteristics that do and do not fit."""
    def gens(rank, count):
        return [tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rank)) for _ in range(count)]

    rank = rng.randint(1, 3)
    omega = gens(rank, rng.randint(0, rank + 1))
    kind = rng.random()
    if kind < 0.8:  # multiples of Gamma_omega's generators: finite index
        nu = [tuple(c * x for x in g)
              for g, c in zip(omega, (rng.randint(1, 3) for _ in omega))]
        if kind < 0.1 and nu:  # one generator fewer: often infinite index
            nu.pop()
        nu_rank = rank
    else:
        nu_rank = rank if kind < 0.95 else rank % 3 + 1
        nu = gens(nu_rank, rng.randint(0, nu_rank))
    gamma_nu, gamma_omega = LexGroup(nu_rank, nu), LexGroup(rank, omega)
    try:
        e = ordgroup.subgroup_index(gamma_omega, gamma_nu)
    except ValueError:
        e = 1
    e = e if isinstance(e, int) else 1
    p = rng.choice((0, 0, 2, 3, 5, 6))
    f = rng.choice((0, 1, 1, 2, 3))
    local = rng.choice((-3, rng.randint(1, 40), e * f, e * f,
                        e * f * max(p, 1) ** rng.randint(1, 2)))
    total = rng.choice((None, None, local, local - 1, 2 * local))
    return ExtensionInvariants(gamma_nu=gamma_nu, gamma_omega=gamma_omega,
                               residue_degree=f, local_degree=local,
                               residue_char=p, total_degree=total)


def test_defect_is_knaf_decide_d():
    # defect derives d from validate's index alone; it equals the verdict's
    # d, or both refuse the data with the same message
    rng = random.Random(39)
    values, refused = [], 0
    for _ in range(2000):
        inv = _extension_case(rng)
        try:
            d = knaf_decide(inv).d
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                defect(inv)
            assert str(caught.value) == str(exc), inv
            refused += 1
        else:
            assert defect(inv) == d, inv
            values.append(d)
    assert values.count(1) > 200 and sum(d > 1 for d in values) > 50
    assert refused > 500


def test_defect_computes_no_initial_index(monkeypatch):
    def unreachable(group, subgroup):
        raise AssertionError("defect computed the initial index")

    monkeypatch.setattr(raminv, "_initial_index", unreachable)
    inv = ExtensionInvariants(gamma_nu=Z1, gamma_omega=HALF,
                              residue_degree=1, local_degree=4,
                              residue_char=2)
    assert defect(inv) == 2
    assert frobenius_defect(4, 1, 1, 2) == 4
    assert frobenius_defect(9, Z1, 3, 3) == 1
    with pytest.raises(ValueError):
        defect(ExtensionInvariants(gamma_nu=HALF, gamma_omega=Z1,
                                   residue_degree=1, local_degree=2))
    with pytest.raises(AssertionError):
        knaf_decide(inv)
