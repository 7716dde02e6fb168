"""Integer number theory on the standard library: primality, roots, factors.

`isprime` is Miller-Rabin with the first 13 primes as bases, which is exact
below psi_13 = 3317044064679887385961981, the least strong pseudoprime to
all of them (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86, 2017).  From psi_13 on, `isprime` defers to sympy,
imported there and only there, so primality answers for huge numbers are
sympy's and no problem the engines meet in practice loads sympy.
"""

from __future__ import annotations

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def isprime(n: int) -> bool:
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= PSI_13:
        from sympy import isprime as sympy_isprime
        return bool(sympy_isprime(n))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, by Newton's method from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int) -> tuple:
    """(r, k) with n = r^k and k as large as possible; (n, 1) if n >= 0 is
    no perfect power."""
    for k in range(n.bit_length(), 1, -1):
        r = iroot(n, k)
        if r ** k == n:
            return r, k
    return n, 1


def primefactors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out
