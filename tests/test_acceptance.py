"""Acceptance suite: the nine release criteria, one pass line each.

Run with `python3 -m pytest tests/test_acceptance.py -s -q` to see the
per-criterion PASS lines; any failure shows up as an ordinary pytest
failure for that criterion.
"""

import math
import random
import time
from fractions import Fraction as F

from oracles import initial_index_box, padic_factor_degrees

from valknaf import cli
from valknaf.fixtures import FIXTURES
from valknaf.gf import GF
from valknaf.localsplit import BaseValuation, split_extensions, to_extension_invariants
from valknaf.monoval import BinomialExtensionSpec, MonomialValuation, extend_binomial
from valknaf.ordgroup import LexGroup, initial_index, subgroup_index
from valknaf.poly import Poly, QQ, poly_gcd
from valknaf.problemfile import parse_problem, serialize
from valknaf.raminv import (ExtensionInvariants, frobenius_defect, knaf_decide,
                            validate)


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS - {detail}")


def _verdicts(invs):
    return tuple((k.e, k.f, k.eps, k.d, k.eft)
                 for k in map(knaf_decide, invs))


# -- 1: criterion semantics on random consistent invariants ----------------------

def _random_group_pair(rng, max_den):
    """gamma_nu inside gamma_omega with finite index, denominators bounded."""
    r = rng.randint(1, 3)
    rows = []
    for i in range(r):
        row = [F(0)] * r
        row[i] = F(rng.randint(1, 3))
        for j in range(i + 1, r):
            row[j] = F(rng.randint(0, 2))
        rows.append(tuple(row))
    scales = [rng.randint(1, max_den) for _ in range(r)]
    omega_rows = [tuple(c / k for c in row) for row, k in zip(rows, scales)]
    if rng.random() < 0.5:
        weights = [rng.randint(-2, 2) for _ in omega_rows]
        extra = tuple(sum(w * row[j] for w, row in zip(weights, omega_rows))
                      for j in range(r))
        omega_rows.append(extra)
    return LexGroup(r, rows), LexGroup(r, omega_rows)


def test_criterion_1_semantics():
    rng = random.Random(20240825)
    t0 = time.monotonic()
    for _ in range(200):
        nu, omega = _random_group_pair(rng, max_den=6)
        p = rng.choice([0, 2, 3, 5])
        d = 1 if p == 0 else rng.choice([1, p])
        f = rng.randint(1, 3)
        e = subgroup_index(omega, nu)
        inv = ExtensionInvariants(
            gamma_nu=nu, gamma_omega=omega, residue_degree=f,
            local_degree=e * f * d, residue_char=p,
            total_degree=e * f * d * rng.choice([1, 2]))
        assert validate(inv) == []
        k = knaf_decide(inv)
        assert k.e * k.f * k.d == inv.local_degree
        assert k.eps <= k.e
        assert k.eft == (k.d == 1 and k.eps == k.e)
        assert k.defectless == (k.d == 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"200 random consistent invariants, eft == (d=1 and eps=e), "
               f"eps <= e, e*f*d exact ({elapsed:.1f}s)")


# -- 2: initial index vs box enumeration ------------------------------------------

def test_criterion_2_initial_index_oracle():
    rng = random.Random(20240826)
    t0 = time.monotonic()
    pairs = mismatches = 0
    while pairs < 100:
        nu, omega = _random_group_pair(rng, max_den=4)
        e = subgroup_index(omega, nu)
        if e == math.inf or e > 12:
            continue
        eps = initial_index(omega, nu)
        box = initial_index_box(list(omega.basis), list(nu.basis), omega.rank)
        if eps != box:
            mismatches += 1
        pairs += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"initial_index matches box enumeration on {pairs} pairs, "
               f"0 mismatches ({elapsed:.1f}s)")


# -- 3: rank-1 engine conservation vs Hensel oracle --------------------------------

def _rand_monic_squarefree(rng, deg):
    while True:
        coeffs = [F(rng.randint(-8, 8), rng.choice([1, 1, 2]))
                  for _ in range(deg)] + [F(1)]
        g = Poly(QQ, coeffs)
        if g.coeffs[0] != 0 and poly_gcd(g, g.derivative()).degree == 0:
            return g


def _integer_model(g):
    m = math.lcm(*[c.denominator for c in g.coeffs])
    n = g.degree
    return [int(c * m ** (n - i)) for i, c in enumerate(g.coeffs)]


def test_criterion_3_conservation():
    rng = random.Random(20240827)
    t0 = time.monotonic()
    for _ in range(50):
        g = _rand_monic_squarefree(rng, rng.randint(2, 4))
        ints = _integer_model(g)
        for p in (2, 3, 5, 7):
            v = BaseValuation.padic(p)
            factors = split_extensions(v, g)
            assert sum(lf.degree for lf in factors) == g.degree
            assert all(lf.e * lf.f == lf.degree for lf in factors)
            assert sorted(lf.degree for lf in factors) == \
                padic_factor_degrees(ints, p), (g.coeffs, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, f"50 polynomials x 4 primes: degree conservation, e*f = "
               f"degree, factor count matches Hensel oracle ({elapsed:.1f}s)")


# -- 4: named instances -------------------------------------------------------------

def _split_rows(v, coeffs):
    g = Poly(v.field, coeffs)
    return _verdicts(to_extension_invariants(v, lf, g.degree)
                     for lf in split_extensions(v, g))


def test_criterion_4_named_instances():
    assert _split_rows(BaseValuation.padic(2), [-2, 0, 1]) == \
        ((2, 1, 2, 1, True),)
    assert _split_rows(BaseValuation.padic(5), [1, 0, 1]) == \
        ((1, 1, 1, 1, True), (1, 1, 1, 1, True))
    assert _split_rows(BaseValuation.padic(3), [1, 0, 1]) == \
        ((1, 2, 1, 1, True),)
    vt = BaseValuation.pi_adic(GF(3), [0, 1])
    assert _split_rows(vt, [-vt.field.t, 0, 1]) == ((2, 1, 2, 1, True),)
    _report(4, "x^2-2 at 2, x^2+1 at 5 and 3, x^2-t at t over F_3(t) "
               "reproduce exactly")


# -- 5: monomial dichotomy ----------------------------------------------------------

def test_criterion_5_monomial_dichotomy():
    t0 = time.monotonic()
    v = MonomialValuation(GF(5), (1, 0), (0, 1))
    rows = {spec: _verdicts(extend_binomial(v, BinomialExtensionSpec(*spec)))
            for spec in ((2, 1, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1))}
    assert rows[(2, 1, 0, 1)] == ((2, 1, 1, 1, False),)   # z^2 = x
    assert rows[(2, 0, 1, 1)] == ((2, 1, 2, 1, True),)    # z^2 = y
    assert rows[(2, 1, 1, 1)] == ((2, 1, 1, 1, False),)   # z^2 = xy
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 5 took {elapsed:.2f}s"
    _report(5, f"z^2=x eft=false eps=1<e=2; z^2=y eft=true eps=2; "
               f"z^2=xy eft=false ({elapsed:.2f}s)")


# -- 6: defect gate ------------------------------------------------------------------

def test_criterion_6_defect_gate():
    z = LexGroup(1, [(1,)])
    for p in (2, 3, 5):
        inv = ExtensionInvariants(gamma_nu=z, gamma_omega=z,
                                  residue_degree=1, local_degree=p,
                                  residue_char=p, total_degree=p)
        k = knaf_decide(inv)
        assert (k.e, k.f, k.d) == (1, 1, p)
        assert k.initial_condition and not k.defectless and not k.eft
        bad = ExtensionInvariants(gamma_nu=z, gamma_omega=z,
                                  residue_degree=1, local_degree=p,
                                  residue_char=0, total_degree=p)
        problems = validate(bad)
        assert problems and any("characteristic 0" in q for q in problems)
    _report(6, "d=p alone blocks EFT; the same data in residue "
               "characteristic 0 fails validation")


# -- 7: Frobenius example ------------------------------------------------------------

def test_criterion_7_frobenius():
    for p in (2, 3, 5):
        assert frobenius_defect(p, LexGroup(1, [(1,)]), 1, p) == 1
        assert frobenius_defect(p * p,
                                LexGroup(2, [(1, 0), (0, 1)]), 1, p) == 1
        assert frobenius_defect(p, 1, 1, p) == p
    _report(7, "Abhyankar cases give defect 1 (rank 1 and lex rank 2); "
               "declared p-divisible group gives defect p")


# -- 8: scaling invariance ------------------------------------------------------------

def test_criterion_8_scaling_invariance():
    for fx in FIXTURES:
        base = [(k.e, k.eps, k.eft) for k in map(knaf_decide, fx.invariants())]
        for c in (F(1, 3), F(2), F(7, 2)):
            scaled = []
            for inv in fx.invariants():
                s = ExtensionInvariants(
                    gamma_nu=inv.gamma_nu.scale(c),
                    gamma_omega=inv.gamma_omega.scale(c),
                    residue_degree=inv.residue_degree,
                    local_degree=inv.local_degree,
                    residue_char=inv.residue_char,
                    total_degree=inv.total_degree)
                k = knaf_decide(s)
                scaled.append((k.e, k.eps, k.eft))
            assert scaled == base, (fx.name, c)
    _report(8, "scaling both groups by 1/3, 2, 7/2 fixes (e, eps, verdict) "
               "on all fixtures")


# -- 9: CLI contract -----------------------------------------------------------------

def test_criterion_9_cli_contract(tmp_path, capsys):
    # round-trip identity on every shipped fixture problem
    for fx in FIXTURES:
        assert parse_problem(serialize(fx.problem)) == fx.problem, fx.name

    split5 = tmp_path / "s.prob"
    split5.write_text("version = 1\nmode = split\n\n[base]\nfield = Q\n"
                      "p = 5\n\n[polynomial]\ncoeffs = [1, 0, 1]\n")
    runs = []
    for _ in range(2):
        assert cli.main(["split", "--file", str(split5), "--porcelain"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] and runs[0].startswith("label=factor 1\te=1")

    bad_syntax = tmp_path / "bad.prob"
    bad_syntax.write_text("version = 1\nmode = split\n\n[base]\nfield = Q\n"
                          "p = 1//2\n\n[polynomial]\ncoeffs = [1, 0, 1]\n")
    reducible = tmp_path / "reducible.prob"  # z^2 = 4 = 2^2 over GF(5)
    reducible.write_text("version = 1\nmode = binomial\n\n[base]\n"
                         "field = GF(5)\nweight_x = (1, 0)\nweight_y = (0, 1)\n"
                         "\n[extension]\nn = 2\na = 0\nb = 0\nc = 4\n")
    deep = tmp_path / "deep.prob"
    deep.write_text("version = 1\nmode = split\n\n[base]\nfield = Q\n"
                    "p = 2\n\n[polynomial]\ncoeffs = [4, 0, 8, 0, 1]\n")
    observed = [
        cli.main(["split", "--file", str(bad_syntax)]),
        cli.main(["decide", "unknown-fixture-name"]),
        cli.main(["binomial", "--file", str(reducible)]),
        cli.main(["split", "--file", str(deep), "--depth", "1"]),
    ]
    capsys.readouterr()
    assert observed == [1, 1, 2, 3]
    _report(9, "fixture problems round-trip, porcelain stable across runs, "
               "exit codes 1/1/2/3 observed on crafted inputs")
