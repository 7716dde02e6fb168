"""Invariants (e, f, eps, d) and the finite-type verdict."""

from fractions import Fraction

import pytest

from valknaf import ordgroup, raminv
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


def test_knaf_decide_computes_the_index_at_most_twice(monkeypatch):
    # validate's check hands e on; only initial_index's own check repeats it
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
    assert len(calls) <= 2


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
