"""Known answers of the rank-1 engine past depth 0.

Two families whose (e, f) are known in closed form, so neither needs an
oracle, and whose walks augment often enough to test the MacLane steps:

- cyclotomic: over Q_p, Phi_m for m = p^k m' with p not dividing m' has
  phi(m') / ord_{m'}(p) factors, each with e = phi(p^k) and f = ord_{m'}(p)
  (Washington, Introduction to Cyclotomic Fields, Thm 2.13);
- Artin-Schreier: over F_p((t)), z^p - z = u with u of pole order prime to
  p is one totally ramified extension, e = p and f = 1 (Stichtenoth,
  Algebraic Function Fields and Codes, Prop. 3.7.8).
"""

import random
from functools import lru_cache
from math import gcd

from valknaf.gf import GF
from valknaf.localsplit import BaseValuation, split_extensions
from valknaf.poly import Poly, QQ

DEPTH = 256


def depth(factor):
    """The augmentation steps of the walk that isolated factor."""
    return factor.certificate.count(" -> ")


# -- cyclotomic polynomials over Q_p ------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(m):
    """Phi_m over Q: x^m - 1 divided exactly by Phi_d for each proper d | m."""
    out = Poly(QQ, [-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            out, rest = divmod(out, cyclotomic(d))
            assert not rest
    return out


def totient(m):
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


def order_mod(p, m):
    """The multiplicative order of p mod m, p prime to m."""
    k, x = 1, p % m
    while x != 1 % m:
        x, k = x * p % m, k + 1
    return k


def cyclotomic_answer(p, m):
    """Sorted (e, f) of the extensions of the p-adic valuation to Q(zeta_m)."""
    pk = 1
    while m % p == 0:
        m, pk = m // p, pk * p
    f = order_mod(p, m)
    return [(totient(pk), f)] * (totient(m) // f)


# the cases that take over 50 ms each, left out to keep the module fast
SLOW_CYCLOTOMIC = {(3, 51), (3, 57), (7, 47), (7, 59)}
CYCLOTOMIC = [(p, m) for p in (2, 3, 5, 7) for m in range(2, 60)
              if (p, m) not in SLOW_CYCLOTOMIC]


def test_cyclotomic_known_answers():
    deep = 0
    for p, m in CYCLOTOMIC:
        got = split_extensions(BaseValuation.padic(p), cyclotomic(m), DEPTH)
        assert sorted((lf.e, lf.f) for lf in got) == cyclotomic_answer(p, m), (
            p, m)
        deep += max(map(depth, got)) > 0
    # 50 of the 228 walks augment at least once
    assert len(CYCLOTOMIC) == 228 and deep >= 40


# -- Artin-Schreier extensions over F_p((t)) ----------------------------------

def reduced_pole_order(p, c):
    """The pole order of u = sum c[j] t^(-j) over F_p after each term
    c t^(-p j) is replaced by c t^(-j), z -> z + c t^(-j) in z^p - z = u
    (c^(1/p) = c in F_p), until the order is prime to p or 0."""
    c = list(c)
    for j in range(len(c) - 1, 0, -1):
        if j % p == 0 and c[j]:
            c[j // p] = (c[j // p] + c[j]) % p
            c[j] = 0
    return max((j for j, x in enumerate(c) if x), default=0)


def artin_schreier_cases():
    """(p, c) with u = sum c[j] t^(-j) of pole order m = len(c) - 1 <= 4p
    and positive reduced pole order, seeded."""
    rng = random.Random(20261021)
    cases = []
    for p in (2, 3, 5):
        for m in range(1, 4 * p + 1):
            for _ in range(15):
                c = ([rng.randrange(p) for _ in range(m)]
                     + [rng.randrange(1, p)])
                if reduced_pole_order(p, c) > 0:
                    cases.append((p, c))
    return cases


def artin_schreier(p, c):
    """The coefficients of y^p - t^(k(p-1)) y - t^(kp) u over F_p[t] for
    u = sum c[j] t^(-j) and k = ceil(m / p): with y = t^k z it is
    t^(kp) (z^p - z - u)."""
    m = len(c) - 1
    k = -(-m // p)
    # t^(kp) u = sum_j c[j] t^(kp - j), a polynomial in t
    tu = [0] * (k * p - m) + c[::-1]
    a0 = Poly(GF(p), [-x % p for x in tu])
    a1 = Poly(GF(p), [0] * (k * (p - 1)) + [p - 1])
    return [a0, a1] + [0] * (p - 2) + [1]


AS_CASES = artin_schreier_cases()


def test_artin_schreier_known_answers():
    deep = 0
    for p, c in AS_CASES:
        v = BaseValuation.pi_adic(GF(p), [0, 1])
        got = split_extensions(v, artin_schreier(p, c), DEPTH)
        assert [(lf.e, lf.f, lf.degree) for lf in got] == [(p, 1, p)], (p, c)
        deep += max(map(depth, got)) > 0
    # 169 of the 589 walks augment at least once
    assert len(AS_CASES) == 589 and deep >= 150
