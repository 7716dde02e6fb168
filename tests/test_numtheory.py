"""The stdlib number theory of valknaf.numtheory against sympy as oracle."""

import random

import pytest
import sympy

from valknaf.numtheory import (PSI_13, iroot, isprime, perfect_power,
                               primefactors)
from valknaf.problemfile import ProblemFileError, _prime_power

# the least strong pseudoprime to the first 12 prime bases (2 ... 37), so the
# 13th base, 41, is what keeps it out
PSI_12 = 318665857834031151167461
# the least strong pseudoprime to the first 9 prime bases (2 ... 23)
PSI_9 = 3825123056546413051
CARMICHAEL = (561, 41041, 825265, 321197185)


def test_isprime_small_range():
    assert [n for n in range(-5, 20000) if isprime(n)] == list(
        sympy.primerange(2, 20000))


@pytest.mark.parametrize("lo,hi", [(10 ** 6, 10 ** 9), (10 ** 12, 10 ** 18),
                                   (2 ** 64, 2 ** 70)])
def test_isprime_seeded_ranges(lo, hi):
    rng = random.Random(lo)
    for _ in range(2000):
        n = rng.randrange(lo, hi)
        assert isprime(n) == sympy.isprime(n), n


def test_isprime_semiprimes():
    rng = random.Random(7)
    for _ in range(200):
        p = sympy.nextprime(rng.randrange(10 ** 5, 10 ** 12))
        q = sympy.nextprime(rng.randrange(10 ** 5, 10 ** 12))
        assert not isprime(p * q)
        assert isprime(p) and isprime(q)


@pytest.mark.parametrize("n", CARMICHAEL + (PSI_9, PSI_12, PSI_13))
def test_isprime_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not isprime(n)


def test_isprime_on_both_sides_of_psi_13():
    rng = random.Random(13)
    for _ in range(300):
        n = PSI_13 + rng.randrange(-10 ** 6, 10 ** 6) | 1
        assert isprime(n) == sympy.isprime(n), n
    assert isprime(sympy.prevprime(PSI_13))
    assert isprime(sympy.nextprime(PSI_13))


def test_isprime_near_1e18():
    assert isprime(10 ** 18 + 3)
    assert [n for n in range(10 ** 18, 10 ** 18 + 400) if isprime(n)] == list(
        sympy.primerange(10 ** 18, 10 ** 18 + 400))


def test_iroot_exact_powers_and_neighbours():
    rng = random.Random(3)
    roots = [2, 3, 10, 2 ** 31 - 1, 10 ** 18 + 3, 2 ** 200 + 1]
    roots += [rng.randrange(2, 10 ** 30) for _ in range(40)]
    for r in roots:
        for k in range(1, 9):
            m = r ** k
            assert iroot(m, k) == r
            assert iroot(m - 1, k) == (r - 1 if k > 1 else m - 1)
            assert iroot(m + 1, k) == (r if k > 1 else m + 1)
    for n in [0, 1, 2, 7] + [rng.randrange(10 ** 40) for _ in range(200)]:
        for k in (1, 2, 3, 5, 17, 200):
            assert iroot(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)


def test_perfect_power_against_sympy():
    rng = random.Random(5)
    ns = list(range(0, 3000))
    for base in (2, 3, 6, 12, 10 ** 9 + 7, 2 ** 61 - 1, 10 ** 18 + 3,
                 PSI_13 - 2, PSI_13 + 2, 2 ** 127 - 1, 10 ** 40 + 1):
        for k in range(1, 7):
            ns += [base ** k - 1, base ** k, base ** k + 1]
    ns += [rng.randrange(PSI_13) for _ in range(200)]
    ns += [rng.randrange(PSI_13, 10 ** 60) for _ in range(50)]
    for n in ns:
        expected = sympy.perfect_power(n) or (n, 1)
        assert perfect_power(n) == expected, n
        if sympy.isprime(expected[0]):
            assert _prime_power(n) == expected, n
        else:
            with pytest.raises(ProblemFileError, match="not a prime power"):
                _prime_power(n)


def test_primefactors_against_sympy():
    rng = random.Random(11)
    values = list(range(1, 5000)) + [rng.randrange(1, 10 ** 9)
                                     for _ in range(300)]
    values += [2 ** 16, 3 ** 10, 65521 * 65519, 2 ** 13 - 2, 3 ** 8 - 1]
    for n in values:
        assert primefactors(n) == sympy.primefactors(n), n
