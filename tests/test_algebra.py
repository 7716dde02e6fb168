"""Tests for the exact-arithmetic core: Poly, finite fields, k(t), residues."""

import math
import random
import time
from fractions import Fraction as F
from itertools import product
from types import SimpleNamespace

import pytest
import sympy

from valknaf import funcfield, gf
from valknaf.funcfield import FunctionField, RatFunc
from valknaf.gf import (GF, FiniteField, GFElement, _TABLE_MAX_Q, _binary_ops,
                       _digit_ops, _distinct_degree, _log_tables, _ppowmod,
                       _squarefree, embed, factor, first_root)
from valknaf.inductive import phi_expansion
from valknaf.poly import (Poly, QQ, _monic, _pdivmod, _pgcd, _pmul, _power,
                          poly_gcd, power)
from valknaf.residuefield import (UnsupportedResidueExtension, extend_residue,
                                  factor_over, linear_decomposer)

import oracles
from oracles import (berlekamp_by_enumeration, codes, compose,
                     factor_seeding_each_call, is_irreducible_rabin,
                     pdivmod_copying, pgcd_copying,
                     phi_expansion_by_poly_division, ref_mul, ref_poly_divmod,
                     ref_poly_eval, ref_poly_gcd, ref_poly_monic,
                     ref_poly_mul, roots, row_reduce,
                     squarefree_by_trial_division, squarefree_full_loop, wrap,
                     wrapped)


def rand_gf_poly(rng, field, degree, monic=False):
    elems = list(field.elements())
    coeffs = [rng.choice(elems) for _ in range(degree)]
    coeffs.append(field.one if monic else rng.choice(elems[1:]))
    return Poly(field, coeffs)


def rand_q_poly(rng, degree):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    coeffs.append(F(rng.randint(1, 9), rng.randint(1, 6)))
    return Poly(QQ, coeffs)


# -- Poly ---------------------------------------------------------------------

def test_poly_divmod_identity():
    rng = random.Random(20240822)
    k5 = GF(5, 1)
    for _ in range(50):
        a = rand_q_poly(rng, rng.randint(0, 7))
        b = rand_q_poly(rng, rng.randint(0, 4))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        fa = rand_gf_poly(rng, k5, rng.randint(0, 7))
        fb = rand_gf_poly(rng, k5, rng.randint(0, 4))
        q, r = divmod(fa, fb)
        assert q * fb + r == fa
        assert r.degree < fb.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.x(QQ), Poly.zero(QQ))


def test_poly_gcd_and_xgcd():
    rng = random.Random(20240823)
    k3 = GF(3, 1)
    for field, draw in ((QQ, rand_q_poly), (k3, None)):
        for _ in range(25):
            if draw:
                g = draw(rng, rng.randint(1, 3))
                u = draw(rng, rng.randint(0, 3))
                v = draw(rng, rng.randint(0, 3))
            else:
                g = rand_gf_poly(rng, k3, rng.randint(1, 3))
                u = rand_gf_poly(rng, k3, rng.randint(0, 3))
                v = rand_gf_poly(rng, k3, rng.randint(0, 3))
            a, b = g * u, g * v
            d = poly_gcd(a, b)
            assert d.is_monic()
            assert (a % d).is_zero() and (b % d).is_zero()
            assert (d % g.monic()).is_zero()
    assert poly_gcd(Poly.zero(QQ), Poly(QQ, [2, 4])) == Poly(QQ, [F(1, 2), 1])
    assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero()


def test_poly_derivative_product_rule():
    rng = random.Random(20240824)
    k3 = GF(3, 1)
    for _ in range(20):
        f = rand_q_poly(rng, rng.randint(0, 5))
        g = rand_q_poly(rng, rng.randint(0, 5))
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        f = rand_gf_poly(rng, k3, rng.randint(0, 5))
        g = rand_gf_poly(rng, k3, rng.randint(0, 5))
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    # characteristic quirk: d/dx of x^3 vanishes over F_3
    assert Poly(k3, [0, 0, 0, 1]).derivative().is_zero()


def test_poly_compose_and_evaluate():
    rng = random.Random(20240825)
    k7 = GF(7, 1)
    for _ in range(20):
        f = rand_gf_poly(rng, k7, rng.randint(0, 4))
        g = rand_gf_poly(rng, k7, rng.randint(0, 3))
        h = compose(f, g)
        for c in k7.elements():
            assert h(c) == f(g(c))
    f = rand_gf_poly(rng, k7, 3)
    assert f ** 4 == f * f * f * f
    assert f ** 0 == Poly.one(k7)


@pytest.mark.parametrize("field", [QQ, FunctionField(GF(3))], ids=repr)
def test_poly_call_matches_horner_reference(field):
    # Poly.__call__, the one Horner loop (gf.embed calls it too), against
    # Horner's rule on the elements' own operators; finite fields are in
    # test_poly_kernel_matches_gfelement_reference
    rng = random.Random(f"poly-call:{field!r}")

    def draw():
        if field is QQ:
            return QQ.coerce(F(rng.randint(-9, 9), rng.randint(1, 4)))
        return rand_ratfunc(rng, field)

    for _ in range(30):
        a = [draw() for _ in range(rng.randint(0, 5))]
        x = draw()
        assert Poly(field, a)(x) == ref_poly_eval(a, x)


# 0 to 3 and 2^k - 1, 2^k: the exponents that take no step of the bit loop
# and the boundaries of that loop
POWER_EXPONENTS = (0, 1, 2, 3, 4, 7, 8, 15, 16)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(2, 3)], ids=repr)
def test_powers_match_repeated_products(field):
    rng = random.Random(f"power:{field!r}")
    if field is QQ:
        a, m = rand_q_poly(rng, 2), Poly(QQ, [F(1, 2), -3, 0, 1])
    else:
        a, m = rand_gf_poly(rng, field, 2), rand_gf_poly(rng, field, 3, True)
    prod = [field.one]
    for n in range(POWER_EXPONENTS[-1] + 1):
        if n in POWER_EXPONENTS:
            assert (a ** n).coeffs == tuple(prod)
            assert _ppowmod(field, a.coeffs, n, m.coeffs) == _pdivmod(
                field, prod, m.coeffs)[1]
        prod = _pmul(field, prod, a.coeffs)


@pytest.mark.parametrize("e", [1, 2, 3, 6, 7, 8, 3 ** 8 - 2, 2 ** 13 - 2])
def test_power_makes_no_product_by_one(e):
    # an element a^k is written k, so a product adds exponents and a product
    # by one has an operand 0
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x + y

    assert _power(mul, 0, 1, 0) == 0 and not calls
    assert _power(mul, 0, 1, e) == e
    assert all(x and y for x, y in calls)
    squarings = sum(x == y for x, y in calls)
    assert squarings == e.bit_length() - 1
    assert len(calls) - squarings == bin(e).count("1") - 1


def test_printed_forms():
    k9, K = GF(3, 2), FunctionField(GF(3))
    t, s = K.t, FunctionField(QQ).t
    cases = (
        (Poly.zero(QQ), "0"),
        (Poly(QQ, [1, 0, 1]), "1 + x^2"),
        (Poly(QQ, [-1, 2, F(1, 2)]), "-1 + 2*x + 1/2*x^2"),
        (Poly(k9, [0, 4, 1]), "(1 + y)*x + x^2"),
        (Poly(k9, [1, 6]), "(1) + (2*y)*x"),
        (K.zero, "0"),
        (2 * t * t + 1, "1 + 2*t^2"),
        (t, "t"),
        ((t + 1) / (t * t + 1), "(1 + t)/(1 + t^2)"),
        (s / 2, "1/2*t"),
        (GF(3, 3).element([0, 0, 1]), "(y^2)"),
    )
    for value, text in cases:
        assert repr(value) == text
    assert [k9.render(c) for c in (0, 1, 3, 4, 6)] == [
        "(0)", "(1)", "(y)", "(1 + y)", "(2*y)"]
    assert GF(5).render(3) == "3"


# on both sides of _TABLE_MAX_Q: GF(3^9) and GF(2^14) run the kernels
KERNEL_FIELDS = ((2, 1), (3, 1), (2, 2), (3, 4), (3, 9), (2, 14))


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
def test_poly_kernel_matches_gfelement_reference(p, n):
    field = GF(p, n)
    rng = random.Random(f"kernel:{p}^{n}")

    def draw(degree, monic=False):
        coeffs = [rng.randrange(field.q) for _ in range(degree)]
        return Poly(field, coeffs + [1 if monic else rng.randrange(1, field.q)])

    for _ in range(40):
        a, b = draw(rng.randint(0, 7)), draw(rng.randint(0, 5))
        common = draw(rng.randint(0, 3), monic=rng.random() < 0.5)
        wa, wb = wrapped(a), wrapped(b)
        assert list((a * b).coeffs) == codes(ref_poly_mul(wa, wb))
        q, r = divmod(a, b)
        ref_q, ref_r = ref_poly_divmod(wa, wb)
        assert (list(q.coeffs), list(r.coeffs)) == (codes(ref_q), codes(ref_r))
        assert list(a.monic().coeffs) == codes(ref_poly_monic(wa))
        ac, bc = a * common, b * common
        assert list(poly_gcd(ac, bc).coeffs) == codes(
            ref_poly_gcd(wrapped(ac), wrapped(bc)))
        assert poly_gcd(ac, bc).degree >= common.degree
        x = rng.randrange(field.q)
        assert a(x) == field.coerce(ref_poly_eval(wa, wrap(field, x)))


# -- finite-field factorization ----------------------------------------------

def sympy_factor_mod_p(coeffs, p):
    """(lead, sorted [(coeff tuple, mult)]) via sympy, coefficients mod p."""
    x = sympy.symbols("x")
    expr = sum(int(c) * x ** i for i, c in enumerate(coeffs))
    lead, fac = sympy.factor_list(sympy.Poly(expr, x, modulus=p))
    pairs = []
    for g, m in fac:
        cs = tuple(int(c) % p for c in reversed(sympy.Poly(g, x).all_coeffs()))
        pairs.append((cs, int(m)))
    return int(lead) % p, sorted(pairs, key=lambda t: (len(t[0]), t[0]))


def test_factor_matches_sympy_over_prime_fields():
    rng = random.Random(20240826)
    for p in (2, 3, 5, 7):
        field = GF(p, 1)
        for _ in range(25):
            f = rand_gf_poly(rng, field, rng.randint(1, 7))
            lead, pairs = factor(f)
            got = sorted(((g.coeffs, m) for g, m in pairs),
                         key=lambda t: (len(t[0]), t[0]))
            exp_lead, exp_pairs = sympy_factor_mod_p(f.coeffs, p)
            assert lead == exp_lead
            assert got == exp_pairs


def test_factor_structural_over_prime_power_fields():
    rng = random.Random(20240827)
    # GF(2^14) and GF(3^9) compute through the kernels, not tables, so
    # division there runs on Fermat inverses a^(q-2)
    for field in (GF(2, 2), GF(3, 2), GF(2, 14), GF(3, 9)):
        for _ in range(15):
            f = rand_gf_poly(rng, field, rng.randint(1, 6))
            lead, pairs = factor(f)
            assert lead == f.leading()
            prod = Poly.constant(field, lead)
            for g, m in pairs:
                assert g.is_monic() and g.degree >= 1
                assert is_irreducible_rabin(g)
                prod = prod * g ** m
            assert prod == f
            assert len({g.coeffs for g, _ in pairs}) == len(pairs)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_canonical_modulus_is_first_irreducible(p):
    # the modulus is the first monic degree-n candidate, counting coefficient
    # vectors (c_0, ..., c_{n-1}) as base-p integers, that Rabin accepts
    k = GF(p)
    n = 1
    while p ** n < 10 ** 6:
        first = next(
            cand for cand in (Poly(k, [code // p ** i % p for i in range(n)]
                                   + [1]) for code in range(p ** n))
            if is_irreducible_rabin(cand))
        assert GF(p, n).modulus == first.coeffs
        n += 1


@pytest.mark.parametrize("p", [10 ** 9 + 7, 10 ** 18 + 3, 2 ** 61 - 1])
def test_field_builds_are_polynomial_in_log_p(p):
    # for n = 3, 4, 5, 7, 8, 10, 11 or 12 one of these p has no irreducible
    # binomial x^n + c, and the modulus search must not test all p of them
    for n in range(2, 13):
        start = time.perf_counter()
        field = FiniteField(p, n)
        assert time.perf_counter() - start < 1.0, n
        assert is_irreducible_rabin(Poly(GF(p), field.modulus)), n


@pytest.mark.parametrize("p,n,top", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_ben_or_matches_rabin(p, n, top):
    # every monic candidate of degree <= top, squarefree or not, as the
    # modulus search meets them: the first degree the distinct-degree pass
    # yields is deg m exactly when Rabin's test accepts m
    field = GF(p, n)
    q = field.q
    for deg in range(1, top + 1):
        for code in range(q ** deg):
            m = [code // q ** i % q for i in range(deg)] + [1]
            first = next(_distinct_degree(field, m))[1]
            assert (first == deg) == is_irreducible_rabin(Poly(field, m)), m


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 13),
                                 (10 ** 18 + 3, 1)])
def test_factor_equal_degree_products(p, n):
    # products of distinct irreducibles of one degree d > 1 reach the
    # equal-degree splitter at d, over GF(2^n) through the trace of
    # GF(2^(nd)); there are (q^d - q) / d monic irreducibles of prime degree d
    field = GF(p, n)
    rng = random.Random(f"equal-degree:{p}^{n}")
    for d in (2, 3):
        for _ in range(3):
            count = min(rng.randint(2, 4), (field.q ** d - field.q) // d)
            chosen = {}
            while len(chosen) < count:
                g = Poly(field, [rng.randrange(field.q) for _ in range(d)]
                         + [1])
                if is_irreducible_rabin(g):
                    chosen[g.coeffs] = g
            f = Poly.one(field)
            for g in chosen.values():
                f = f * g
            expected = sorted(chosen.values(),
                              key=lambda g: (g.degree, g.coeffs))
            assert factor(f) == (field.one, [(g, 1) for g in expected])


def rand_squarefree(rng, field, degree, coprime_to=None):
    """Random monic squarefree polynomial, coprime to coprime_to if given."""
    while True:
        g = rand_gf_poly(rng, field, degree, monic=True)
        if poly_gcd(g, g.derivative()).degree != 0:
            continue
        if coprime_to is None or poly_gcd(g, coprime_to).degree == 0:
            return g


def pth_root(h):
    """r with r(x)^p = h(x^p): coefficients c^(q/p)."""
    field = h.field
    return Poly(field, [power(field, c, field.q // field.p) for c in h.coeffs])


BERLEKAMP_FIELDS = ((2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (5, 2))


@pytest.mark.parametrize("p,n", BERLEKAMP_FIELDS)
def test_factor_matches_enumeration_oracle(p, n):
    field = GF(p, n)
    rng = random.Random(f"berlekamp:{p}^{n}")
    for _ in range(10):
        # squarefree input: the factors themselves
        f = rand_squarefree(rng, field, rng.randint(2, 7))
        _, pairs = factor(f)
        assert [g for g, _ in pairs] == berlekamp_by_enumeration(f)
        assert all(m == 1 for _, m in pairs)
        # a * b^2 with a, b squarefree and coprime
        a = rand_squarefree(rng, field, rng.randint(1, 4))
        b = rand_squarefree(rng, field, rng.randint(1, 3), coprime_to=a)
        expected = sorted([(g, 1) for g in berlekamp_by_enumeration(a)]
                          + [(g, 2) for g in berlekamp_by_enumeration(b)],
                          key=lambda t: (t[0].degree, t[0].coeffs))
        lead = rng.choice([x for x in field.elements() if x])
        assert factor(a * b * b * lead) == (lead, expected)
        # inseparable h(x^p) = r(x)^p
        h = rand_squarefree(rng, field, rng.randint(1, 3))
        f = compose(h, Poly.x(field) ** p)
        assert f.derivative().is_zero()
        r = pth_root(h)
        assert r ** p == f
        assert factor(f)[1] == [(g, p) for g in berlekamp_by_enumeration(r)]


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(Poly.zero(GF(2, 1)))


def squarefree_decomposition(f):
    """gf._squarefree on f made monic, as (Poly, multiplicity) pairs."""
    F = f.field
    return [(Poly(F, g), m) for g, m in _squarefree(F, list(f.monic().coeffs))]


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(20240828)
    k2 = GF(2, 1)
    for _ in range(25):
        f = rand_gf_poly(rng, k2, rng.randint(1, 5))
        g = rand_gf_poly(rng, k2, rng.randint(0, 3))
        h = f * f * g
        prod = Poly.one(k2)
        parts = squarefree_decomposition(h)
        assert parts == squarefree_by_trial_division(h)
        for part, m in parts:
            assert part.is_monic()
            assert poly_gcd(part, part.derivative()).degree <= 0
            prod = prod * part ** m
        assert prod == h.monic()
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


def test_squarefree_decomposition_inseparable_part():
    k3 = GF(3, 1)
    g = Poly(k3, [2, 1, 1])  # x^2 + x + 2, no roots in F_3
    assert not roots(g)
    # over F_3, g(x^3) = g(x)^3; the p-th-root path must see through it
    f = compose(g, Poly(k3, [0, 0, 0, 1]))
    assert f.derivative().is_zero()
    assert squarefree_decomposition(f) == [(g, 3)]
    mixed = f * Poly(k3, [1, 1])
    assert squarefree_decomposition(mixed) == [(Poly(k3, [1, 1]), 1), (g, 3)]
    assert squarefree_by_trial_division(mixed) == [(Poly(k3, [1, 1]), 1),
                                                   (g, 3)]


def test_squarefree_merges_no_multiplicity(monkeypatch):
    # the Yun loop gives multiplicities prime to p, the p-th-root recursion
    # multiples of p, so no two parts ever share one: no part is a product
    rng = random.Random("squarefree merge")
    cases = []
    for p, n in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
        F = GF(p, n)
        for _ in range(20):
            f = Poly.one(F)
            for _ in range(rng.randint(1, 3)):
                g = rand_gf_poly(rng, F, rng.randint(1, 2), monic=True)
                f = f * g ** rng.randint(1, 12)
            cases.append((F, list(f.coeffs)))

    def no_product(*args):
        raise AssertionError("gf._squarefree multiplied two parts")

    expected = [squarefree_full_loop(F, f) for F, f in cases]
    monkeypatch.setattr(gf, "_pmul", no_product)
    assert [_squarefree(F, f) for F, f in cases] == expected


# -- the one remainder loop and the factorizer's setup -----------------------
# poly._preduce reduces in place; the kernel that copied the dividend and
# made a quotient at every step, and the factorizer that ran its whole
# squarefree loop and made its generator on every call, are the references.


def _sweep_field(name, rng):
    """(field, draw of one element, possibly zero, k[t] under k(t) or None)."""
    if name.startswith("GF"):
        p, n = {"GF(2)": (2, 1), "GF(7)": (7, 1), "GF(3^4)": (3, 4),
                "GF(3^9)": (3, 9)}[name]
        field = GF(p, n)
        return field, (lambda: rng.randrange(field.q)
                       if rng.random() < 0.8 else 0), None
    if name == "QQ-int":
        return QQ, lambda: rng.randint(-9, 9), None
    if name == "QQ-frac":
        return QQ, lambda: QQ.coerce(F(rng.randint(-9, 9),
                                       rng.randint(1, 4))), None
    # F_3(t): each element is reduced by poly_gcd on F_3[t]
    k = GF(3)
    K = FunctionField(k)

    def tpoly():
        return Poly(k, [rng.randrange(3) for _ in range(rng.randint(0, 2))])

    def draw():
        den = tpoly()
        return RatFunc(K, tpoly(), den if den else Poly.one(k))

    return K, draw, k


def _sweep_poly(F, draw, degree, monic=False):
    """A list of elements of degree `degree` (-1: zero), leading one if
    monic, else any nonzero leading coefficient."""
    if degree < 0:
        return []
    lead = F.one if monic else F.zero
    while not lead:
        lead = draw()
    return [draw() for _ in range(degree)] + [lead]


@pytest.mark.parametrize("name", ["GF(2)", "GF(7)", "GF(3^4)", "GF(3^9)",
                                  "QQ-int", "QQ-frac", "F3(t)"])
def test_remainder_loop_matches_copying_kernel(name):
    rng = random.Random(f"remainder loop:{name}")
    F, draw, k = _sweep_field(name, rng)
    # (deg a, deg b): zero and constant operands, a shorter than b, equal
    # degrees; b is monic or not at random
    shapes = [(-1, 2), (-1, 0), (0, 0), (0, 3), (1, 4), (3, 3), (5, 5),
              (4, 0), (6, 2)] + [(rng.randint(-1, 7), rng.randint(0, 5))
                                 for _ in range(20)]
    for da, db in shapes:
        a = _sweep_poly(F, draw, da)
        b = _sweep_poly(F, draw, db, monic=rng.random() < 0.5)
        common = _sweep_poly(F, draw, rng.randint(0, 2))
        ac, bc = _pmul(F, a, common), _pmul(F, b, common)
        inputs = [a, b, common, ac, bc]
        kept = [list(x) for x in inputs]
        assert _pdivmod(F, a, b) == pdivmod_copying(F, a, b)
        assert _pdivmod(F, tuple(a), tuple(b)) == pdivmod_copying(F, a, b)
        for x, y in ((a, b), (b, a), (ac, bc), (bc, ac), (a, []), ([], b)):
            assert _pgcd(F, x, y) == pgcd_copying(F, list(x), list(y))
            assert _pgcd(F, tuple(x), tuple(y)) == pgcd_copying(F, x, y)
        phi = _sweep_poly(F, draw, max(db, 1), monic=True)
        f, key = Poly(F, a), Poly(F, phi)
        assert phi_expansion(f, key) == phi_expansion_by_poly_division(f, key)
        assert f.coeffs == tuple(a) and key.coeffs == tuple(phi)
        if F.characteristic and k is None:
            assert gf._ppowmod(F, a, F.q + 3, b) == _power(
                lambda x, y: pdivmod_copying(F, _pmul(F, x, y), b)[1],
                [1], pdivmod_copying(F, a, b)[1], F.q + 3)
            for g in (a, ac, _pmul(F, ac, common)):
                if g:
                    g = _monic(F, g)
                    assert gf._squarefree(F, g) == squarefree_full_loop(F, g)
        assert inputs == kept
        if k is not None:
            # the k[t] gcd that normalizes each element of k(t)
            for x in a:
                num, den = x.numerator, x.denominator
                assert poly_gcd(num, den).coeffs == tuple(
                    pgcd_copying(k, list(num.coeffs), list(den.coeffs)))


FROBENIUS_FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(7)": (7, 1),
                    "GF(13)": (13, 1), "GF(10^18+3)": (10 ** 18 + 3, 1),
                    "table GF(3^4)": (3, 4), "table GF(2^5)": (2, 5),
                    "digits GF(3^9)": (3, 9), "binary GF(2^14)": (2, 14)}


@pytest.mark.parametrize("name", FROBENIUS_FIELDS)
def test_frobenius_matches_powers(monkeypatch, name):
    # frob is a -> a^p on codes, and _frobenius_mod is a^p mod f, whether
    # it spreads a or hands it to _ppowmod; a runs from zero to three times
    # the length of f, so both sides of that choice are taken
    F = GF(*FROBENIUS_FIELDS[name])
    rng = random.Random(f"frobenius:{name}")
    delegated = []

    def counting(*args):
        delegated.append(args)
        return _ppowmod(*args)

    monkeypatch.setattr(gf, "_ppowmod", counting)
    draws = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(60)]
    assert [F.frob(a) for a in draws] == [power(F, a, F.p) for a in draws]
    for _ in range(60):
        f = _sweep_poly(F, lambda: rng.randrange(F.q), rng.randint(1, 8),
                        monic=rng.random() < 0.8)
        a = _sweep_poly(F, lambda: rng.randrange(F.q),
                        rng.randint(-1, 3 * len(f)))
        kept = list(a), list(f)
        assert gf._frobenius_mod(F, a, f) == _ppowmod(F, a, F.p, f), (a, f)
        assert (a, f) == kept
    assert 0 < len(delegated) < 60


def counting_random():
    """A stand-in for the module random whose Random counts the generators
    made and their randrange draws."""
    counts = {"made": 0, "draws": 0}

    class Counting(random.Random):
        def __init__(self, seed):
            counts["made"] += 1
            super().__init__(seed)

        def randrange(self, *args):
            counts["draws"] += 1
            return super().randrange(*args)

    return SimpleNamespace(Random=Counting), counts


def splits(f):
    """Whether factoring f reaches an equal-degree split."""
    F = f.field
    return any(len(h) - 1 > d
               for g, _ in squarefree_full_loop(F, _monic(F, f.coeffs))
               for h, d in gf._distinct_degree(F, g))


FACTOR_SETUP_FIELDS = ((2, 1), (5, 1), (3, 2), (2, 3))


@pytest.mark.parametrize("p,n", FACTOR_SETUP_FIELDS)
def test_factor_setup_only_when_used(monkeypatch, p, n):
    # the generator of the equal-degree splitting is made at the first
    # split, once per factor call, and not at all when no part splits
    field = GF(p, n)
    rng = random.Random(f"factor setup:{p}^{n}")
    fake, counts = counting_random()
    monkeypatch.setattr(gf, "random", fake)
    x = Poly.x(field)
    # irreducible; one factor per degree; two linear factors (a split)
    inputs = [rand_irreducible(rng, field, 3),
              x * rand_irreducible(rng, field, 2), x * (x + field.one)]
    inputs += [rand_gf_poly(rng, field, rng.randint(1, 7)) for _ in range(30)]
    split = 0
    for f in inputs:
        made = counts["made"]
        factor(f)
        assert counts["made"] - made == splits(f), f
        split += splits(f)
    assert not splits(inputs[0]) and not splits(inputs[1])
    assert splits(inputs[2])
    assert 0 < split < len(inputs)


@pytest.mark.parametrize("p,n", FACTOR_SETUP_FIELDS)
def test_factor_setup_draws_like_parent(monkeypatch, p, n):
    field = GF(p, n)
    rng = random.Random(f"factor draws:{p}^{n}")
    new, new_counts = counting_random()
    old, old_counts = counting_random()
    monkeypatch.setattr(gf, "random", new)
    monkeypatch.setattr(oracles, "random", old)
    for _ in range(30):
        f = rand_gf_poly(rng, field, rng.randint(0, 8))
        if rng.random() < 0.3:
            f = f * f
        assert factor(f) == factor_seeding_each_call(f)
        assert new_counts["draws"] == old_counts["draws"]
    assert new_counts["draws"] > 0


LINEAR_FIELDS = {"GF(7)": (7, 1), "table GF(3^4)": (3, 4),
                 "digits GF(3^9)": (3, 9), "binary GF(2^14)": (2, 14)}


@pytest.mark.parametrize("name", LINEAR_FIELDS)
def test_linear_factor_is_its_own(monkeypatch, name):
    # a linear f comes back as its own monic factor, as the general path
    # gives it, with no squarefree gcd and no distinct-degree split
    field = GF(*LINEAR_FIELDS[name])
    rng = random.Random(f"linear factor:{name}")
    inputs = [Poly.x(field), Poly(field, [1, 1])]
    inputs += [Poly(field, [rng.randrange(field.q), rng.randrange(1, field.q)])
               for _ in range(20)]
    expected = [factor_seeding_each_call(f) for f in inputs]

    def general(*args):
        raise AssertionError("a linear factor took the general path")

    monkeypatch.setattr(gf, "_squarefree", general)
    monkeypatch.setattr(gf, "_distinct_degree", general)
    assert [factor(f) for f in inputs] == expected


def test_squarefree_setup_one_gcd(monkeypatch):
    calls = []

    def counting(F, a, b):
        calls.append(1)
        return _pgcd(F, a, b)

    monkeypatch.setattr(gf, "_pgcd", counting)
    k = GF(3)
    x = Poly.x(k)
    for f, parts in ((x ** 3 + 2 * x + 1, [(x ** 3 + 2 * x + 1, 1)]),
                     (x * (x + 1), [(x * (x + 1), 1)]),
                     (Poly.one(k), [])):
        calls.clear()
        got = gf._squarefree(k, list(f.coeffs))
        assert [(Poly(k, g), m) for g, m in got] == parts
        assert len(calls) == 1
    calls.clear()
    assert gf._squarefree(k, list((x ** 2 * (x + 1)).coeffs)) == [
        ([1, 1], 1), ([0, 1], 2)]
    assert len(calls) > 1


def test_roots_match_linear_factors():
    rng = random.Random(20240829)
    for field in (GF(5, 1), GF(2, 2)):
        for _ in range(15):
            f = rand_gf_poly(rng, field, rng.randint(1, 5))
            _, pairs = factor(f)
            linear = {field.neg(g[0]) for g, _ in pairs if g.degree == 1}
            assert set(roots(f)) == linear
    # canonical element order, not insertion order
    k5 = GF(5, 1)
    f = (Poly.x(k5) - 3) * (Poly.x(k5) - 1)
    assert roots(f) == [1, 3]


def rand_irreducible(rng, field, degree):
    """A random monic irreducible polynomial of the given degree."""
    while True:
        g = rand_gf_poly(rng, field, degree, monic=True)
        if [h.degree for h, _ in factor(g)[1]] == [degree]:
            return g


@pytest.mark.parametrize("p,n,draws", [
    (2, 2, 12), (3, 2, 12), (2, 5, 12), (5, 2, 12), (2, 6, 12), (3, 4, 12),
    (2, 14, 3),
])
def test_first_root_is_first_of_roots(p, n, draws):
    # f irreducible over a random subfield GF(p^k) of GF(p^n), of degree
    # n / k, embedded: its roots are one orbit of x -> x^(p^k)
    big = GF(p, n)
    rng = random.Random(p * 100 + n)
    degrees = set()
    for _ in range(draws):
        k = rng.choice([k for k in range(1, n + 1) if n % k == 0])
        small = GF(p, k)
        g = rand_irreducible(rng, small, n // k)
        f = g.map_coeffs(embed(small, big), big)
        found = roots(f)
        assert len(found) == f.degree
        assert first_root(f, k) == found[0], (g, k)
        degrees.add(f.degree)
    assert max(degrees) > 1


def test_first_root_beyond_enumeration():
    # GF(p^2) = F_p[y]/(y^2 + 1) for p = 3 mod 4; the roots of t^2 - 2 are
    # +-s y with s^2 = -2, of codes s p and (p - s) p
    p = 10 ** 18 + 3
    big = GF(p, 2)
    assert big.modulus == (1, 0, 1)
    s = pow(-2 % p, (p + 1) // 4, p)
    assert s * s % p == -2 % p
    f = Poly(big, [big.coerce(-2), 0, 1])
    assert first_root(f, 1) == min(s, p - s) * p


@pytest.mark.parametrize("p,coeffs", [
    (5, [-2, 0, 1]), (2, [1, 1, 1]), (7, [1, 0, 1]),
    (5, [1, -2, 1]), (2, [1, 0, 1]), (3, [1, 0, 0, 1]),
    (10 ** 9 + 7, [-5, 0, 1]),
], ids=["no-root-5", "no-root-2", "no-root-7", "double-5", "double-2",
        "triple-3", "no-root-large-p"])
def test_first_root_rejects_contract_breach(p, coeffs):
    # no roots, or a repeated root: x^q = x mod f fails, and the search
    # raises instead of splitting forever; a quadratic irreducible over
    # GF(p) stays irreducible over GF(p^3).  5 is no square mod 10^9 + 7,
    # and there the check takes T^p by square-and-multiply
    for n in (1, 3):
        field = GF(p, n)
        with pytest.raises(ValueError):
            first_root(Poly(field, [field.coerce(c) for c in coeffs]), 1)


# -- embeddings and element arithmetic ----------------------------------------

def test_embed_is_field_homomorphism():
    # GF(3^10) and GF(2^14) lie above _TABLE_MAX_Q: the odd-p digit kernel
    # and the carry-less kernel
    for small, big in ((GF(2, 2), GF(2, 4)), (GF(3, 1), GF(3, 2)),
                       (GF(3, 2), GF(3, 10)), (GF(2, 2), GF(2, 14))):
        phi = embed(small, big)
        assert phi(small.one) == big.one
        assert phi(small.zero) == big.zero
        elems = list(small.elements())
        for a in elems:
            for b in elems:
                assert phi(small.add(a, b)) == big.add(phi(a), phi(b))
                assert phi(small.mul(a, b)) == big.mul(phi(a), phi(b))
        assert len({phi(a) for a in elems}) == small.q
    with pytest.raises(ValueError):
        embed(GF(2, 2), GF(2, 3))
    with pytest.raises(ValueError):
        embed(GF(2, 1), GF(3, 1))


def test_gf_inverse_exhaustive():
    for field in (GF(2, 1), GF(7, 1), GF(2, 3), GF(3, 2), GF(5, 2), GF(2, 14)):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
        with pytest.raises(ZeroDivisionError):
            field.element([0]).inverse()
        for a in range(1, min(field.q, 500)):
            assert field.mul(a, field.inv(a)) == field.one
            assert power(field, a, -1) == field.inv(a)
            wrapped = field.element(field.coords(a))
            assert wrapped * wrapped.inverse() == field.element([1])


@pytest.mark.parametrize("call,message", [
    (lambda: Poly.zero(QQ).leading(),
     "zero polynomial has no leading coefficient"),
    (lambda: Poly.x(QQ) ** -1, "negative power of a polynomial"),
    (lambda: Poly.x(QQ) + Poly.x(GF(3)), "mixed coefficient fields"),
    (lambda: GF(2, 0), "extension degree must be >= 1"),
    (lambda: first_root(Poly(GF(3), [1]), 1), "1 is not of positive degree"),
    (lambda: FunctionField(GF(3)).coerce(FunctionField(GF(5)).t),
     "element of a different function field"),
    (lambda: FunctionField(GF(3)).coerce(Poly.x(GF(5))),
     "polynomial over a different constant field"),
], ids=["leading-of-zero", "negative-power", "mixed-fields", "degree-0",
        "constant-root", "foreign-ratfunc", "foreign-poly"])
def test_algebra_error_branches(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_gf_coercion():
    k7 = GF(7, 1)
    assert k7.coerce(F(3, 2)) == k7.mul(k7.coerce(3), k7.inv(k7.coerce(2)))
    assert k7.coerce(-1) == k7.coerce(6) == 6
    with pytest.raises(ZeroDivisionError):
        k7.coerce(F(1, 7))
    k9 = GF(3, 2)
    # an int is an integer, reduced mod p; a code beyond the prime field
    # comes in only through its wrapper
    assert k9.coerce(5) == 2
    assert k9.coerce(k9.element([2, 1])) == 5
    assert k9.coerce(GF(3, 1).element([2])) == k9.coerce(2)
    with pytest.raises(ValueError):
        k9.coerce(GF(2, 2).element([1]))
    with pytest.raises(TypeError):
        k9.coerce(1.0)
    with pytest.raises(ValueError):
        GF(6, 1)


def test_equal_fields_built_apart_give_equal_elements():
    # a field built apart from the cached one, as every field built before
    # GF.cache_clear() is to every field built after it
    for p, n in ((3, 2), (2, 3), (5, 1)):
        F, G = GF(p, n), FiniteField(p, n)
        assert F == G and F is not G
        assert F.coerce(G.element([1] * n)) == F.coerce(F.element([1] * n))
        assert F.element([1] * n) == G.element([1] * n)
        a, b = Poly(F, [1, 2, 1]), Poly(G, [1, 2, 1])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(ValueError):
        GF(3, 2).coerce(FiniteField(3, 3).element([1, 1]))


# -- int-coded elements against a digit-tuple reference -------------------------

# on both sides of _TABLE_MAX_Q: (2, 14), (3, 9), (5, 6) and (101, 2) run
# the kernels themselves, the other extension fields their tables
CODE_FIELDS = ((2, 1), (2, 2), (2, 5), (2, 13), (2, 14), (3, 1), (3, 4),
               (3, 8), (3, 9), (5, 3), (5, 6), (7, 4), (101, 2))


def ref_pow(field, a, e):
    out = (1,) + (0,) * (field.n - 1)
    for _ in range(e):
        out = ref_mul(field, out, a)
    return out


@pytest.mark.parametrize("p,n", CODE_FIELDS)
def test_gf_codes_match_digit_reference(p, n):
    field = GF(p, n)
    one = (1,) + (0,) * (n - 1)

    def digits(code):
        return tuple(field.coords(code))

    rng = random.Random(f"codes:{p}^{n}")
    for _ in range(150):
        da = tuple(rng.randrange(p) for _ in range(n))
        db = tuple(rng.randrange(p) for _ in range(n))
        a, b = field.from_coords(da), field.from_coords(db)
        assert digits(field.mul(a, b)) == ref_mul(field, da, db)
        assert digits(field.add(a, b)) == tuple((x + y) % p
                                                for x, y in zip(da, db))
        assert digits(field.sub(a, b)) == tuple((x - y) % p
                                                for x, y in zip(da, db))
        assert digits(field.neg(a)) == tuple(-x % p for x in da)
        e = rng.randrange(12)
        assert digits(power(field, a, e)) == ref_pow(field, da, e)
        if any(da):
            inv = field.inv(a)
            assert ref_mul(field, da, digits(inv)) == one
            assert digits(power(field, a, -e)) == ref_pow(field, digits(inv),
                                                          e)
        # the printable wrapper computes through the same ops
        wa, wb = GFElement(field, da), GFElement(field, db)
        assert field.coerce(wa * wb) == field.mul(a, b)
        assert field.coerce(wa + wb) == field.add(a, b)
        assert field.coerce(wa - wb) == field.sub(a, b)
        assert field.coerce(-wa) == field.neg(a)
    # Fermat: a^q = a, and a^(q-1) = 1 for a != 0
    a = field.from_coords([1] * n)
    assert power(field, a, field.q) == a
    assert power(field, a, field.q - 1) == field.one


@pytest.mark.parametrize("p,n", CODE_FIELDS)
def test_gf_codes_round_trip(p, n):
    field = GF(p, n)
    rng = random.Random(f"round-trip:{p}^{n}")
    for _ in range(100):
        digits = tuple(rng.randrange(p) for _ in range(n))
        a = GFElement(field, digits)
        assert a.coeffs == digits
        code = field.coerce(a)
        assert code == sum(c * p ** i for i, c in enumerate(digits))
        assert field.from_coords(digits) == code
        assert field.coords(code) == list(digits)
        assert field.element(a.coeffs) == a
        assert GFElement(field, [c + p for c in digits]) == a
    with pytest.raises(ValueError):
        GFElement(field, [0] * (n + 1))
    with pytest.raises(AttributeError):
        a.field = GF(p, n)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 6), (3, 2), (3, 4),
                                 (5, 2), (7, 2), (3, 8), (2, 13), (89, 2),
                                 (5, 5), (7, 4), (3, 7)])
def test_gf_tables_match_kernels(p, n):
    field = GF(p, n)
    q, order = field.q, field.q - 1
    assert q <= _TABLE_MAX_Q
    kernel = (_binary_ops(n, field.modulus) if p == 2
              else _digit_ops(p, n, field.modulus))
    add, sub, neg, mul, inv = kernel
    g, exp, log, zech = _log_tables(p, n, mul)
    # exp runs through the powers of g twice; once round is every nonzero
    # code, so g has order q - 1, and every smaller code has a smaller order
    assert len(exp) == 2 * order and exp[0] == 1
    assert all(exp[k + 1] == mul(exp[k], g) for k in range(2 * order - 1))
    assert sorted(exp[:order]) == list(range(1, q))
    assert len(log) == q and all(log[exp[k]] == k for k in range(order))
    assert all(math.gcd(log[c], order) > 1 for c in range(2, g))
    if p == 2:
        assert zech is None
    else:
        half = order // 2
        assert exp[half] == neg(1)
        assert [k for k, z in enumerate(zech) if z is None] == [half,
                                                               half + order]
        assert all(exp[zech[k]] == add(1, exp[k])
                   for k in range(order) if k != half)
    if q <= 81:
        pairs = list(product(range(q), repeat=2))
    else:
        rng = random.Random(f"tables:{p}^{n}")
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
        pairs += [(a, neg(a)) for a, _ in pairs[:200]]
        pairs += [(a, a) for a, _ in pairs[:200]]
    for a, b in pairs:
        assert field.mul(a, b) == mul(a, b)
        assert field.add(a, b) == add(a, b)
        assert field.sub(a, b) == sub(a, b)
    for a in {a for a, _ in pairs}:
        assert field.neg(a) == neg(a)
        if a:
            assert field.inv(a) == inv(a)


@pytest.mark.parametrize("p,n", [(3, 8), (2, 13), (5, 5)])
def test_gf_tables_step_powers_without_the_kernel(p, n):
    # the kernel product gives the images of the basis under x -> x^p and
    # x -> x g and the digit powers of the primitivity test; the q - 1
    # powers of g are stepped without it.  Tabulating 2 sqrt(q) products of
    # x g and testing g by square-and-multiply took 870, 192 and 252.
    bound = {(3, 8): 400, (2, 13): 32, (5, 5): 100}[p, n]
    modulus = GF(p, n).modulus
    kernel_mul = (_binary_ops(n, modulus) if p == 2
                  else _digit_ops(p, n, modulus))[3]
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return kernel_mul(a, b)

    _log_tables(p, n, mul)
    assert 0 < len(calls) <= bound


def test_log_tables_match_reference():
    # every table field: n >= 2 and p^n <= _TABLE_MAX_Q, 50 of them
    fields = [(p, n) for p in range(2, 91) if sympy.isprime(p)
              for n in range(2, 14) if p ** n <= _TABLE_MAX_Q]
    assert len(fields) == 50
    for p, n in fields:
        modulus = GF(p, n).modulus
        mul = (_binary_ops(n, modulus) if p == 2
               else _digit_ops(p, n, modulus))[3]
        assert _log_tables(p, n, mul) == oracles.ref_log_tables(p, n, mul), \
            (p, n)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_gf_elements_order_and_hash(p, n):
    field = GF(p, n)
    elems = list(field.elements())
    assert elems == list(range(field.q))
    # c_0 runs fastest: the enumeration order of digit vectors read base p
    assert [tuple(field.coords(x)) for x in elems] == [
        tuple(reversed(t)) for t in product(range(p), repeat=n)]
    wrapped = [field.element(field.coords(x)) for x in elems]
    for x, w in zip(elems, wrapped):
        assert field.coerce(w) == x
        twin = GFElement(field, w.coeffs)
        assert twin == w and hash(twin) == hash(w)
    assert len(set(wrapped)) == field.q
    assert len({field.mul(x, y) for x in elems for y in elems
                if x and y}) == field.q - 1
    assert GF(11).element([1]) != field.element([1])


# -- rational function fields --------------------------------------------------

def rand_ratfunc(rng, K, nonzero=False):
    num = rand_gf_poly(rng, K.base, rng.randint(0, 3))
    den = rand_gf_poly(rng, K.base, rng.randint(0, 2))
    out = RatFunc(K, num, den)
    if nonzero and not out:
        return K.one + K.t
    return out


def test_ratfunc_reduced_form_and_field_identities():
    rng = random.Random(20240830)
    K = FunctionField(GF(5, 1))
    for _ in range(30):
        a = rand_ratfunc(rng, K)
        b = rand_ratfunc(rng, K)
        c = rand_ratfunc(rng, K)
        for x in (a, b, a + b, a * b):
            assert x.denominator.is_monic()
            if x:
                assert poly_gcd(x.numerator, x.denominator).degree <= 0
        assert (a + b) * c == a * c + b * c
        assert a - a == K.zero
        assert a + (b + c) == (a + b) + c
        nz = rand_ratfunc(rng, K, nonzero=True)
        assert nz / nz == K.one
        assert nz * (K.one / nz) == K.one
        for k in (0, 1, 3):
            power = nz ** k
            assert power * nz ** -k == K.one
            assert power.denominator.is_monic()
            assert poly_gcd(power.numerator, power.denominator).degree == 0
    with pytest.raises(ZeroDivisionError):
        K.one / K.zero


def test_ratfunc_constant_denominator_skips_gcd(monkeypatch):
    rng = random.Random(20241018)
    K = FunctionField(GF(5, 1))
    powers = [rand_ratfunc(rng, K, nonzero=True) for _ in range(10)]
    calls = []
    real_gcd = funcfield.poly_gcd
    monkeypatch.setattr(funcfield, "poly_gcd",
                        lambda a, b: calls.append((a, b)) or real_gcd(a, b))
    built = []
    for _ in range(30):
        num = rand_gf_poly(rng, K.base, rng.randint(0, 4))
        den = Poly(K.base, [rng.randrange(1, 5)])
        x = RatFunc(K, num, den)
        assert x.numerator * den == num
        built.append(x)
    built += [x ** 0 for x in powers]
    assert calls == []
    for x in built:
        assert x.denominator == Poly.one(K.base)
    assert all(x ** 0 == K.one for x in powers)


def test_ratfunc_int_and_fraction_mix():
    K = FunctionField(QQ)
    t = K.t
    a = (t ** 2 - 1) / (t - 1)
    assert a == t + 1
    assert 2 * a - a == a
    assert (1 - t) / (t - 1) == -K.one
    assert (a / F(1, 2)) == 2 * a


def test_ratfunc_order_at_additive():
    rng = random.Random(20240831)
    K = FunctionField(GF(3, 1))
    pis = [Poly.x(K.base), Poly(K.base, [1, 0, 1])]  # t and t^2 + 1
    for pi in pis:
        for _ in range(20):
            a = rand_ratfunc(rng, K, nonzero=True)
            b = rand_ratfunc(rng, K, nonzero=True)
            assert (a * b).order_at(pi) == a.order_at(pi) + b.order_at(pi)
            if a + b:
                assert ((a + b).order_at(pi)
                        >= min(a.order_at(pi), b.order_at(pi)))
    t = K.t
    assert (t ** 3 / (t ** 2 + 1)).order_at(pis[1]) == -1
    with pytest.raises(ValueError):
        K.zero.order_at(pis[0])


def test_ratfunc_derivative_leibniz():
    rng = random.Random(20240901)
    K = FunctionField(QQ)
    for _ in range(20):
        na = Poly(QQ, [rng.randint(-4, 4) for _ in range(3)] + [1])
        nb = Poly(QQ, [rng.randint(-4, 4) for _ in range(2)] + [1])
        a = RatFunc(K, na, nb)
        b = RatFunc(K, nb, Poly.one(QQ))
        assert (a * b).d_dt() == a.d_dt() * b + a * b.d_dt()
    assert not K.coerce(F(7, 3)).d_dt()


def test_clear_denominators_coerces_coefficients():
    # a Poly over k(t) keeps int and k[t] coefficients as they were given
    K = FunctionField(GF(3, 1))
    t = Poly.x(K.base)
    one = Poly.one(K.base)
    assert funcfield.clear_denominators(Poly(K, [-K.t, 0, 1])) == [
        -t, Poly(K.base, []), one]
    assert funcfield.clear_denominators(
        Poly(K, [K.one / (K.t + 1), 2, t])) == [one, 2 * t + 2, t ** 2 + t]


# -- residue-field services ----------------------------------------------------

def test_factor_over_rationals_known_values():
    x = Poly.x(QQ)
    assert factor_over(QQ, x ** 2 - 1) == [(x - 1, 1), (x + 1, 1)]
    assert factor_over(QQ, x ** 2 + 1) == [(x ** 2 + 1, 1)]
    assert factor_over(QQ, 4 * x ** 2 - 4 * x + 1) == [(x - F(1, 2), 2)]
    assert factor_over(QQ, 6 * x ** 2 + 5 * x + 1) == [
        (x + F(1, 3), 1), (x + F(1, 2), 1)]
    with pytest.raises(TypeError):
        factor_over("Q", x)


def test_factor_over_rationals_in_degree_coefficient_order():
    # the sympy path orders its factors as gf.factor does: by (degree,
    # coefficients), each with its multiplicity
    rng = random.Random(20291019)
    x = sympy.Symbol("x")
    seen = dict.fromkeys(("rational", "negative", "tie", "rational tie",
                          "squared"), 0)
    for case in range(80):
        chosen = {}
        count = rng.randint(2, 4)
        while len(chosen) < count:
            d = rng.randint(1, 3)
            den = rng.randint(2, 6) if rng.random() < 0.5 else 1
            g = Poly(QQ, [QQ.coerce(F(rng.randint(-9, 9), den))
                          for _ in range(d)] + [1])
            if d > 1 and not sympy.Poly(
                    [sympy.Rational(c) for c in reversed(g.coeffs)], x,
                    domain="QQ").is_irreducible:
                continue
            chosen[g.coeffs] = g
        factors = list(chosen.values())
        rng.shuffle(factors)
        mults = [1] * count
        if case % 2:
            mults[0] = 2
        f = Poly.one(QQ)
        for g, m in zip(factors, mults):
            f = f * g ** m
        expected = sorted(zip(factors, mults),
                          key=lambda t: (t[0].degree, t[0].coeffs))
        assert factor_over(QQ, f) == expected
        rational = [any(type(c) is F for c in g.coeffs) for g in factors]
        degrees = [g.degree for g in factors]
        seen["rational"] += any(rational)
        seen["negative"] += any(c < 0 for g in factors for c in g.coeffs)
        seen["tie"] += len(set(degrees)) < count
        seen["rational tie"] += any(
            degrees[i] == degrees[j] and rational[i] and rational[j]
            for i in range(count) for j in range(i))
        seen["squared"] += 2 in mults
    assert min(seen.values()) >= 10, seen


def test_extend_residue_linear_shortcut():
    k2 = GF(2, 1)
    ext = extend_residue(k2, Poly(k2, [1, 1]))
    assert ext.new_field is k2
    assert ext.root == k2.one
    assert ext.decompose(ext.root) == [k2.one]
    q = extend_residue(QQ, Poly(QQ, [F(2, 3), 1]))
    assert q.root == F(-2, 3)


def test_extend_residue_builds_correct_tower():
    rng = random.Random(20240902)
    for field, psi_coeffs in ((GF(2, 1), [1, 1, 0, 1]),   # x^3 + x + 1
                              (GF(3, 2), None)):
        if psi_coeffs is None:
            while True:  # find an irreducible quadratic over GF(9)
                psi = rand_gf_poly(rng, field, 2, monic=True)
                if psi.degree == 2 and not roots(psi):
                    break
        else:
            psi = Poly(field, psi_coeffs)
        ext = extend_residue(field, psi)
        assert ext.new_field.q == field.q ** psi.degree
        big = ext.new_field
        lifted = psi.map_coeffs(ext.embed, big)
        assert lifted(ext.root) == big.zero
        for y in list(big.elements())[:40]:
            coeffs = ext.decompose(y)
            assert len(coeffs) == psi.degree
            acc = big.zero
            root_power = big.one
            for c in coeffs:
                acc = big.add(acc, big.mul(ext.embed(c), root_power))
                root_power = big.mul(root_power, ext.root)
            assert acc == y


def test_extend_residue_rejects_number_fields():
    with pytest.raises(UnsupportedResidueExtension):
        extend_residue(QQ, Poly(QQ, [1, 0, 1]))
    with pytest.raises(ValueError):
        extend_residue(GF(2, 1), Poly.one(GF(2, 1)))


def test_linear_decomposer_roundtrip_and_errors():
    k9 = GF(3, 2)
    y = k9.coerce(k9.element([0, 1]))
    assert y == 3
    dec = linear_decomposer(k9, [k9.one, y])
    for a in k9.elements():
        c0, c1 = dec(a)
        assert k9.add(k9.coerce(c0), k9.mul(k9.coerce(c1), y)) == a
    one_plus_y = k9.add(k9.one, y)
    dec2 = linear_decomposer(k9, [y, one_plus_y])
    assert dec2(y) == [1, 0]
    assert dec2(k9.one) == [2, 1]  # 1 = 2*y + (1 + y) over F_3
    with pytest.raises(ValueError):
        linear_decomposer(k9, [k9.one])
    with pytest.raises(ValueError):
        linear_decomposer(k9, [k9.one, k9.add(k9.one, k9.one)])


@pytest.mark.parametrize("p, n", [(2, 6), (3, 5), (5, 3), (10 ** 9 + 7, 2)])
def test_linear_decomposer_sweep(p, n):
    # seeded bases, every fourth with its last element a combination of
    # the others: the reference row echelon form decides independence; an
    # independent basis recomposes every x, a dependent one raises
    field = GF(p, n)
    rng = random.Random(61 * p + n)
    seen = {True: 0, False: 0}

    def combine(coeffs, basis):
        acc = field.zero
        for c, b in zip(coeffs, basis):
            acc = field.add(acc, field.mul(field.coerce(c), b))
        return acc

    for trial in range(40):
        basis = [rng.randrange(field.q) for _ in range(n)]
        if trial % 4 == 3:
            basis[-1] = combine([rng.randrange(p) for _ in range(n - 1)],
                                basis)
        rank = len(row_reduce(GF(p), [field.coords(b) for b in basis]))
        seen[rank == n] += 1
        if rank < n:
            with pytest.raises(ValueError, match="dependent"):
                linear_decomposer(field, basis)
            continue
        dec = linear_decomposer(field, basis)
        for x in [0, 1] + [rng.randrange(field.q) for _ in range(10)]:
            coeffs = dec(x)
            assert all(0 <= c < p for c in coeffs)
            assert combine(coeffs, basis) == x
    assert seen[True] >= 5 and seen[False] >= 5, seen


def test_prime_field_is_one_object():
    # GF(p, 1) is GF(p), so a prime tested by one is not tested by the other
    assert GF(101, 1) is GF(101)
    assert GF(3, 2).p == 3 and GF(3, 1) is GF(3)
    for args in [(4,), (4, 1), (4, 2), (-3,), (1,)]:
        with pytest.raises(ValueError, match="is not prime"):
            GF(*args)
    with pytest.raises(ValueError, match="extension degree"):
        GF(4, 0)
