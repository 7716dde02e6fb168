"""Named extension fixtures: desk-checked instances runnable by name.

Each fixture bundles a human description, a problem file (the same data in
the textual format, for round-tripping and as a worked example), a builder
producing the `ExtensionInvariants` list from the engines or from declared
data, and the expected (e, f, eps, d, eft) rows.  The catalog covers the
classical split cases (square roots at small primes, an Eisenstein case
over F_3(t)), the three monomial-valuation binomials separating the
initial-index condition from ramification, and the two Frobenius-pullback
cases: the Abhyankar one (defectless) and a declared defect-2 one whose
value group is 2-divisible, so its scaling index is 1 by declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from fractions import Fraction

from .gf import GF
from .localsplit import BaseValuation, split_extensions, to_extension_invariants
from .monoval import BinomialExtensionSpec, MonomialValuation, extend_binomial
from .ordgroup import LexGroup, RationalVector
from .problemfile import ProblemFile
from .raminv import ExtensionInvariants


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    problem: ProblemFile
    build: object = _field(repr=False)  # () -> list of ExtensionInvariants
    expected: tuple = ()  # one (e, f, eps, d, eft) per extension

    def invariants(self) -> list:
        return self.build()


def _pf(mode, *sections):
    return ProblemFile(version=1, mode=mode, sections=tuple(sections))


def _vec(*coords):
    return RationalVector(Fraction(c) for c in coords)


def _split_q(p, coeffs):
    def build():
        v = BaseValuation.padic(p)
        return [to_extension_invariants(v, lf, len(coeffs) - 1)
                for lf in split_extensions(v, list(coeffs))]
    problem = _pf("split",
                  ("base", (("field", "Q"), ("p", p))),
                  ("polynomial", (("coeffs", tuple(coeffs)),)))
    return build, problem


def _split_f3_x2_minus_t():
    def build():
        v = BaseValuation.pi_adic(GF(3), [0, 1])
        return [to_extension_invariants(v, lf, 2)
                for lf in split_extensions(v, [-v.field.t, 0, 1])]
    problem = _pf("split",
                  ("base", (("field", "GF(3)"), ("pi", (0, 1)))),
                  ("polynomial", (("coeffs", (_vec(0, -1), 0, 1)),)))
    return build, problem


def _binomial_f5(n, a, b, c):
    def build():
        v = MonomialValuation(GF(5), (1, 0), (0, 1))
        return extend_binomial(v, BinomialExtensionSpec(n, a, b, c))
    problem = _pf("binomial",
                  ("base", (("field", "GF(5)"),
                            ("weight_x", _vec(1, 0)),
                            ("weight_y", _vec(0, 1)))),
                  ("extension", (("n", n), ("a", a), ("b", b),
                                 ("c", Fraction(c)))))
    return build, problem


def _declared(gen_nu, gen_omega, f, local, p, total, label, provenance):
    def build():
        return [ExtensionInvariants(
            gamma_nu=LexGroup(1, [(Fraction(gen_nu),)]),
            gamma_omega=LexGroup(1, [(Fraction(gen_omega),)]),
            residue_degree=f, local_degree=local, residue_char=p,
            total_degree=total, provenance=provenance)]
    problem = _pf("decide",
                  ("gamma_nu", (("rank", 1), ("gen", _vec(gen_nu)))),
                  ("gamma_omega", (("rank", 1), ("gen", _vec(gen_omega)))),
                  ("extension", (("residue_degree", f), ("local_degree", local),
                                 ("residue_char", p), ("total_degree", total),
                                 ("label", label))))
    return build, problem


def _make_catalog():
    entries = []

    build, problem = _split_q(2, (-2, 0, 1))
    entries.append(Fixture(
        "sqrt2-at-2",
        "x^2 - 2 at the 2-adic valuation on Q: totally ramified, eps = e = 2",
        problem, build, ((2, 1, 2, 1, True),)))

    build, problem = _split_q(5, (1, 0, 1))
    entries.append(Fixture(
        "i-at-5",
        "x^2 + 1 at the 5-adic valuation on Q: splits into two trivial "
        "extensions",
        problem, build, ((1, 1, 1, 1, True), (1, 1, 1, 1, True))))

    build, problem = _split_q(3, (1, 0, 1))
    entries.append(Fixture(
        "i-at-3",
        "x^2 + 1 at the 3-adic valuation on Q: inert, residue degree 2",
        problem, build, ((1, 2, 1, 1, True),)))

    build, problem = _split_f3_x2_minus_t()
    entries.append(Fixture(
        "sqrt-t-at-t-f3",
        "x^2 - t at the t-adic valuation on F_3(t): Eisenstein, totally "
        "ramified",
        problem, build, ((2, 1, 2, 1, True),)))

    build, problem = _binomial_f5(2, 1, 0, 1)
    entries.append(Fixture(
        "monomial-sqrt-x",
        "z^2 = x over F_5(x, y) with lex monomial weights: e = 2 but "
        "eps = 1, not finitely generated",
        problem, build, ((2, 1, 1, 1, False),)))

    build, problem = _binomial_f5(2, 0, 1, 1)
    entries.append(Fixture(
        "monomial-sqrt-y",
        "z^2 = y over F_5(x, y) with lex monomial weights: the new value "
        "sits in the lex-smallest level, eps = e = 2",
        problem, build, ((2, 1, 2, 1, True),)))

    build, problem = _binomial_f5(2, 1, 1, 1)
    entries.append(Fixture(
        "monomial-sqrt-xy",
        "z^2 = x*y over F_5(x, y) with lex monomial weights: eps = 1 < e = 2",
        problem, build, ((2, 1, 1, 1, False),)))

    build, problem = _declared(
        2, 1, 1, 2, 2, 2, "frobenius-abhyankar",
        "t-adic valuation on F_2(t) over its square: [Gamma : 2 Gamma] = 2 "
        "absorbs the whole degree, defectless")
    entries.append(Fixture(
        "frobenius-abhyankar",
        "F_2(t) over F_2(t^2), t-adic: Abhyankar case of the Frobenius "
        "pullback, defect 1",
        problem, build, ((2, 1, 2, 1, True),)))

    build, problem = _declared(
        1, 1, 1, 2, 2, 2, "frobenius-defect-p",
        "Frobenius pullback with 2-divisible value group: declared "
        "[Gamma : 2 Gamma] = 1 and trivial residue step, so d = 2")
    entries.append(Fixture(
        "frobenius-defect-p",
        "purely inseparable degree-2 extension whose value group and "
        "residue field do not move: defect 2 blocks finite type",
        problem, build, ((1, 1, 1, 2, False),)))

    return tuple(entries)


FIXTURES = _make_catalog()
_BY_NAME = {fx.name: fx for fx in FIXTURES}


def fixture(name: str) -> Fixture:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(fx.name for fx in FIXTURES)
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}")
