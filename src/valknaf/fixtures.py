"""Named extension fixtures: desk-checked instances runnable by name.

A fixture is data: a human description, a problem file and the expected
(e, f, eps, d, eft) rows.  It is decided by `problemfile.problem_invariants`,
the reading the CLI gives a problem file.  The catalog covers the classical
split cases (square roots at small primes, an Eisenstein case over F_3(t)),
the three monomial-valuation binomials separating the initial-index
condition from ramification, and the two Frobenius-pullback cases: the
Abhyankar one (defectless) and a declared defect-2 one whose value group is
2-divisible, so its scaling index is 1 by declaration.  These two carry a
certificate sentence, as a problem-file label is one word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .ordgroup import RationalVector
from .problemfile import ProblemFile, problem_invariants


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    problem: ProblemFile
    expected: tuple = ()  # one (e, f, eps, d, eft) per extension
    certificate: str = ""  # if set, in place of the problem's provenance

    def invariants(self) -> list:
        return [replace(inv, provenance=self.certificate or inv.provenance)
                for inv in problem_invariants(self.problem)]


def _pf(mode, *sections):
    return ProblemFile(version=1, mode=mode, sections=tuple(sections))


def _split_q(p, coeffs):
    return _pf("split",
               ("base", (("field", "Q"), ("p", p))),
               ("polynomial", (("coeffs", tuple(map(Fraction, coeffs))),)))


def _binomial_f5(n, a, b, c):
    return _pf("binomial",
               ("base", (("field", "GF(5)"),
                         ("weight_x", RationalVector((1, 0))),
                         ("weight_y", RationalVector((0, 1))))),
               ("extension", (("n", n), ("a", a), ("b", b),
                              ("c", Fraction(c)))))


def _declared(gen_nu, gen_omega, f, local, p, total, label):
    nu, omega = RationalVector([gen_nu]), RationalVector([gen_omega])
    return _pf("decide",
               ("gamma_nu", (("rank", 1), ("gen", nu))),
               ("gamma_omega", (("rank", 1), ("gen", omega))),
               ("extension", (("residue_degree", f), ("local_degree", local),
                              ("residue_char", p), ("total_degree", total),
                              ("label", label))))


FIXTURES = (
    Fixture(
        "sqrt2-at-2",
        "x^2 - 2 at the 2-adic valuation on Q: totally ramified, eps = e = 2",
        _split_q(2, (-2, 0, 1)), ((2, 1, 2, 1, True),)),
    Fixture(
        "i-at-5",
        "x^2 + 1 at the 5-adic valuation on Q: splits into two trivial "
        "extensions",
        _split_q(5, (1, 0, 1)), ((1, 1, 1, 1, True), (1, 1, 1, 1, True))),
    Fixture(
        "i-at-3",
        "x^2 + 1 at the 3-adic valuation on Q: inert, residue degree 2",
        _split_q(3, (1, 0, 1)), ((1, 2, 1, 1, True),)),
    Fixture(
        "sqrt-t-at-t-f3",
        "x^2 - t at the t-adic valuation on F_3(t): Eisenstein, totally "
        "ramified",
        _pf("split",
            ("base", (("field", "GF(3)"),
                      ("pi", (Fraction(0), Fraction(1))))),
            ("polynomial", (("coeffs", (RationalVector((0, -1)), Fraction(0),
                                        Fraction(1))),))),
        ((2, 1, 2, 1, True),)),
    Fixture(
        "monomial-sqrt-x",
        "z^2 = x over F_5(x, y) with lex monomial weights: e = 2 but "
        "eps = 1, not finitely generated",
        _binomial_f5(2, 1, 0, 1), ((2, 1, 1, 1, False),)),
    Fixture(
        "monomial-sqrt-y",
        "z^2 = y over F_5(x, y) with lex monomial weights: the new value "
        "sits in the lex-smallest level, eps = e = 2",
        _binomial_f5(2, 0, 1, 1), ((2, 1, 2, 1, True),)),
    Fixture(
        "monomial-sqrt-xy",
        "z^2 = x*y over F_5(x, y) with lex monomial weights: eps = 1 < e = 2",
        _binomial_f5(2, 1, 1, 1), ((2, 1, 1, 1, False),)),
    Fixture(
        "frobenius-abhyankar",
        "F_2(t) over F_2(t^2), t-adic: Abhyankar case of the Frobenius "
        "pullback, defect 1",
        _declared(2, 1, 1, 2, 2, 2, "frobenius-abhyankar"),
        ((2, 1, 2, 1, True),),
        certificate="t-adic valuation on F_2(t) over its square: "
                    "[Gamma : 2 Gamma] = 2 absorbs the whole degree, "
                    "defectless"),
    Fixture(
        "frobenius-defect-p",
        "purely inseparable degree-2 extension whose value group and "
        "residue field do not move: defect 2 blocks finite type",
        _declared(1, 1, 1, 2, 2, 2, "frobenius-defect-p"),
        ((1, 1, 1, 2, False),),
        certificate="Frobenius pullback with 2-divisible value group: "
                    "declared [Gamma : 2 Gamma] = 1 and trivial residue "
                    "step, so d = 2"),
)
_BY_NAME = {fx.name: fx for fx in FIXTURES}


def fixture(name: str) -> Fixture:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(fx.name for fx in FIXTURES)
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}")
