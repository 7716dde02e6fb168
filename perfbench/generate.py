"""Seeded problem-file generators for the four benchmark workloads.

Every workload is an endless stream of blocks of `Item`s drawn from a
`random.Random` seeded with the workload name and the seed, so one seed
always gives byte-identical problem files.  A block visits every stratum of
its workload once (for example each prime and degree), so a run of whole
blocks has the same mix of cheap and expensive problems for every seed.
Where single problems of one stratum differ in cost by large factors, the
expensive part of the input is drawn from a second, seed-independent
generator (`fixed`); see the ft_split and wide_residue blocks.

This module never imports valknaf: it decides squarefreeness,
irreducibility, lattice indices and binomial reducibility with its own small
integer routines, so that each item carries the outcome it must have
(`Item.expect`) and runs on seeds without a golden record can still be
checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import gcd

WORKLOADS = ("qp_split", "ft_split", "wide_residue", "lex_decide")


@dataclass(frozen=True)
class Item:
    """One CLI call: `valknaf <mode> --file F --porcelain <extra>`.

    expect holds what a correct answer must satisfy: "exit" always, plus
    "degree" (split/binomial: local degrees sum to it), "index" (group and
    decide: e), "local_degree" (decide).
    """

    family: str
    mode: str
    text: str
    expect: dict
    extra: tuple = field(default=())

    def argv(self, path: str) -> list:
        return [self.mode, "--file", path, "--porcelain", *self.extra]


def blocks(workload: str, seed: int):
    """Endless deterministic stream of item blocks of one workload."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    fixed = random.Random(f"{workload}:fixed")
    block = _BLOCKS[workload]
    while True:
        items = block(rng, fixed)
        rng.shuffle(items)
        yield items


def items(workload: str, seed: int, count: int) -> list:
    return list(islice(chain.from_iterable(blocks(workload, seed)), count))


# -- integer polynomial helpers (ascending coefficient lists) ------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p=None):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    if p:
        out = [c % p for c in out]
    return _trim(out)


def _add(a, b, p=None):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(n)]
    if p:
        out = [c % p for c in out]
    return _trim(out)


def _deriv(a, p=None):
    return _trim([(i * c) % p if p else i * c for i, c in enumerate(a)][1:])


def _rem(a, m, p=None):
    """Remainder of a by m, over F_p when p is given, else over Q."""
    a = list(a)
    lead = pow(m[-1], -1, p) if p else Fraction(1) / m[-1]
    while len(a) >= len(m) and a:
        c = a[-1] * lead
        if p:
            c %= p
        off = len(a) - len(m)
        for j, y in enumerate(m):
            a[off + j] -= c * y
            if p:
                a[off + j] %= p
        a.pop()
        _trim(a)
    return _trim(a)


def _gcd_degree(a, b, p=None) -> int:
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) - 1


def _squarefree(a, p=None) -> bool:
    return _gcd_degree(list(a), _deriv(a, p), p) == 0


def _powmod(a, e, m, p):
    out, base = [1], _rem(a, m, p)
    while e:
        if e & 1:
            out = _rem(_mul(out, base, p), m, p)
        base = _rem(_mul(base, base, p), m, p)
        e >>= 1
    return out


def _irreducible(m, p) -> bool:
    """Ben-Or: monic m of degree n over F_p is irreducible iff
    gcd(x^(p^k) - x, m) = 1 for every k <= n/2."""
    n = len(m) - 1
    xk = [0, 1]
    for _ in range(n // 2):
        xk = _powmod(xk, p, m, p)
        if _gcd_degree(list(m), _add(xk, [0, -1], p), p) > 0:
            return False
    return n >= 1


@lru_cache(maxsize=None)
def _canonical_modulus(p, n):
    """valknaf's GF(p^n) modulus: first irreducible in base-p order."""
    for k in range(p ** n):
        m = [(k // p ** i) % p for i in range(n)] + [1]
        if _irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial")


def _random_irreducible(rng, p, n, avoid=()):
    while True:
        m = [rng.randrange(p) for _ in range(n)] + [1]
        if tuple(m) not in avoid and _irreducible(m, p):
            return m


# -- problem-file text -------------------------------------------------------

def _int_list(coeffs) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"


def _tpoly(entries) -> str:
    entries = _trim(list(entries))
    if len(entries) <= 1:
        return str(entries[0] if entries else 0)
    return "(" + ", ".join(str(c) for c in entries) + ")"


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _vector(v) -> str:
    return "(" + ", ".join(_frac(Fraction(c)) for c in v) + ")"


def _split_text(base_lines, coeff_texts) -> str:
    return ("version = 1\nmode = split\n\n[base]\n" + "".join(
        f"{line}\n" for line in base_lines)
        + "\n[polynomial]\ncoeffs = [" + ", ".join(coeff_texts) + "]\n")


def _qp_item(family, p, coeffs, exit_code=0, extra=()):
    text = _split_text(["field = Q", f"p = {p}"], [str(c) for c in coeffs])
    return Item(family, "split", text,
                {"exit": exit_code, "degree": len(coeffs) - 1}, tuple(extra))


# -- qp_split ----------------------------------------------------------------

def random_q_poly(rng, degree, bound=64):
    """Monic squarefree integer polynomial, coefficients in [-bound, bound]."""
    while True:
        f = [rng.randint(-bound, bound) for _ in range(degree)] + [1]
        if _squarefree(f):
            return f


def _tower(rng, p):
    """phi^m + p^k * u with phi irreducible mod p of degree 2-3."""
    while True:
        d, m = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3)))
        phi = _random_irreducible(rng, p, d)
        k = rng.randint(1, 3)
        u = [rng.randint(-p, p) for _ in range(d * m)]
        power = [1]
        for _ in range(m):
            power = _mul(power, phi)
        g = _add(power, [p ** k * c for c in u])
        if len(g) == d * m + 1 and _squarefree(g):
            return g


def _deep_tower(rng):
    """(phi^2 + 2a)^2 + 8b at p = 2: the residual T^2 + 1 repeats over
    GF(2^deg phi), so a second augmentation is needed (exit 3 at depth 1)."""
    while True:
        phi = _random_irreducible(rng, 2, rng.choice((2, 3)))
        a, b = rng.choice((-3, -1, 1, 3)), rng.choice((-3, -1, 1, 3))
        inner = _add(_mul(phi, phi), [2 * a])
        g = _add(_mul(inner, inner), [8 * b])
        if _squarefree(g):
            return g


def _non_squarefree(rng):
    h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 2))] + [1]
    rest = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1]
    return _mul(_mul(h, h), rest)


def _qp_block(rng, _fixed):
    out = [_qp_item("random", p, random_q_poly(rng, n))
           for p in (2, 3, 5, 7) for n in range(4, 11)]
    out += [_qp_item("tower", p, _tower(rng, p))
            for p in (2, 3, 5, 7) for _ in range(3)]
    out.append(_qp_item("non_squarefree", rng.choice((2, 3, 5, 7)),
                        _non_squarefree(rng), exit_code=2))
    out.append(_qp_item("deep_tower", 2, _deep_tower(rng), exit_code=3,
                        extra=("--depth", "1")))
    return out


# -- ft_split ----------------------------------------------------------------

REANCHOR_PI = (1, 0, 1)  # t^2 + 1 over F_3


def random_ft_poly(rng, q, degree):
    """Monic g in F_q[t][x], coefficients t-polynomials of degree <= 3.

    Squarefree over F_q(t) by construction: g is monic in x, so a
    squarefree specialization g(a, x) rules out a repeated factor.
    """
    while True:
        g = [[rng.randrange(q) for _ in range(4)] for _ in range(degree)]
        g.append([1])
        for a in range(q):
            special = [sum(c * a ** i for i, c in enumerate(e)) % q for e in g]
            if _squarefree(special, q):
                return g


def _ft_item(family, q, pi, g):
    text = _split_text([f"field = GF({q})", f"pi = {_int_list(pi)}"],
                       [_tpoly(e) for e in g])
    return Item(family, "split", text, {"exit": 0, "degree": len(g) - 1})


def _ft_block(rng, fixed):
    """Every (q, deg pi, deg g) stratum once.  The cost of an item varies by
    a factor of two to three between random g of degree 3-5 (squarefree
    test) and between random pi (splitting), so those come from the
    seed-independent `fixed` generator and a run's cost does not change
    with the seed; the degree-2 g and the order follow the seed."""
    out = []
    for q in (2, 3, 5):
        for d in (1, 2, 3):
            if (q, d) == (3, 2):
                family, pi = "reanchor_t2p1", list(REANCHOR_PI)
            else:
                family, pi = "random", _random_irreducible(fixed, q, d)
            out += [_ft_item(family, q, pi,
                             random_ft_poly(fixed if n >= 3 else rng, q, n))
                    for n in range(2, 6)]
    return out


# -- wide_residue --------------------------------------------------------------

# (p, n) strata of phi_n^2 + p*u over Q.  The first root of phi_n in
# GF(p^n) is searched element by element, and where it falls changes an
# item's cost up to tenfold between random phi_n; so phi_n, and the pi of
# the F_3(t) quartics, come from the seed-independent `fixed` generator and
# a run's cost does not change with the seed.  u and the order follow the
# seed.
WIDE_Q_STRATA = ([(2, n) for n in range(6, 14)] + [(3, n) for n in range(4, 9)]
                 + [(5, n) for n in range(3, 6)] + [(7, 3), (7, 4)])
WIDE_FT_DEGREES = (4, 5, 6)


def phi_squared_item(rng, p, n, phi_rng=None):
    """phi_n^2 + p*u, phi_n irreducible mod p and not GF(p^n)'s modulus;
    u = 1 at p = 2 (the phi_n^2 + 2 family).  phi_n is drawn from phi_rng
    (default rng)."""
    phi = _random_irreducible(phi_rng or rng, p, n,
                              avoid={_canonical_modulus(p, n)})
    u = 1 if p == 2 else rng.randint(1, p - 1)
    return _qp_item("phi_squared", p, _add(_mul(phi, phi), [p * u]))


def _quartic_item(rng, d):
    """x^4 - (t + 1) over F_3(t) at pi irreducible of degree d."""
    pi = _random_irreducible(rng, 3, d)
    return _ft_item("quartic_f3t", 3, pi, [[-1 % 3, -1 % 3], [], [], [], [1]])


def _wide_block(rng, fixed):
    return ([phi_squared_item(rng, p, n, fixed) for p, n in WIDE_Q_STRATA]
            + [_quartic_item(fixed, d) for d in WIDE_FT_DEGREES])


# -- lex_decide ----------------------------------------------------------------

def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _small_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _lattice_pair(rng, rank):
    """(Gamma_nu gens, Gamma_omega gens, index): Gamma_nu = M * Gamma_omega."""
    while True:
        omega = [[_small_rational(rng) for _ in range(rank)] for _ in range(rank)]
        if _det(omega):
            break
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        index = abs(_det(mat))
        if 0 < index <= 24:
            break
    nu = [[sum(mat[i][k] * omega[k][j] for k in range(rank)) for j in range(rank)]
          for i in range(rank)]
    return nu, omega, int(index)


def _group_sections(nu, omega, rank) -> str:
    out = ""
    for name, gens in (("gamma_nu", nu), ("gamma_omega", omega)):
        out += f"\n[{name}]\nrank = {rank}\n"
        out += "".join(f"gen = {_vector(g)}\n" for g in gens)
    return out


def _group_item(rng, rank, consistent=True):
    nu, omega, index = _lattice_pair(rng, rank)
    if not consistent:
        nu = nu[:-1]  # rank-deficient: infinite index
    text = "version = 1\nmode = group\n" + _group_sections(nu, omega, rank)
    expect = {"exit": 0, "index": index} if consistent else {"exit": 2}
    return Item("group" if consistent else "group_infinite", "group", text,
                expect)


def _decide_item(rng, rank, label, consistent=True):
    nu, omega, e = _lattice_pair(rng, rank)
    p = rng.choice((0, 2, 3, 5, 7))
    f = rng.randint(1, 3)
    if consistent:
        d = p ** rng.randint(0, 2) if p else 1
    else:
        d = p + 1 if p else 2  # never a power of p, never 1
    local = e * f * d
    text = ("version = 1\nmode = decide\n" + _group_sections(nu, omega, rank)
            + f"\n[extension]\nresidue_degree = {f}\nlocal_degree = {local}\n"
            f"residue_char = {p}\n")
    if rng.random() < 0.5:
        text += f"total_degree = {local + rng.randint(0, 3)}\n"
    text += f"label = {label}\n"
    expect = ({"exit": 0, "index": e, "local_degree": local} if consistent
              else {"exit": 2})
    return Item("decide" if consistent else "decide_inconsistent", "decide",
                text, expect)


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


class _Field:
    """Just enough of GF(p), GF(p^2) and Q to test for q-th powers."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        self.order = p ** k - 1 if p else None
        self.mod = _canonical_modulus(p, 2) if k == 2 else None

    def mul(self, x, y):
        if not self.p:
            return x * y
        if self.k == 1:
            return x * y % self.p
        c0, c1, _ = self.mod  # y^2 = -c1*y - c0
        a0, a1 = x
        b0, b1 = y
        hi = a1 * b1
        return ((a0 * b0 - hi * c0) % self.p,
                (a0 * b1 + a1 * b0 - hi * c1) % self.p)

    def power(self, x, e):
        out = 1 if self.k == 1 else (1, 0)
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def scale(self, x, c):
        return tuple(a * c % self.p for a in x) if self.k == 2 else x * c % self.p

    def is_power(self, c, q) -> bool:
        if not self.p:
            if c < 0 and q % 2 == 0:
                return False
            return all(_iroot(abs(n), q) for n in (c.numerator, c.denominator))
        one = 1 if self.k == 1 else (1, 0)
        return self.power(c, self.order // gcd(q, self.order)) == one


def _iroot(m, q) -> bool:
    r = round(m ** (1.0 / q))
    return any((r + s) ** q == m for s in (-1, 0, 1) if r + s >= 0)


def _binomial_irreducible(field, n, a, b, c) -> bool:
    """Capelli: z^n - c x^a y^b is irreducible unless it is a q-th power
    (q prime, q | n, a, b) or, when 4 | n, a, b, of the form -4 s^4."""
    for q in _prime_factors(n):
        if a % q == 0 and b % q == 0 and field.is_power(c, q):
            return False
    if n % 4 == 0 and a % 4 == 0 and b % 4 == 0 and field.p != 2:
        if field.p:
            minus_quarter = field.scale(c, (-pow(4, -1, field.p)) % field.p)
        else:
            minus_quarter = -c / 4
        if field.is_power(minus_quarter, 4):
            return False
    return True


def _binomial_item(rng, p, k):
    field = _Field(p, k)
    while True:
        wx, wy = ([_small_rational(rng) for _ in range(2)] for _ in range(2))
        if _det([wx, wy]):
            break
    n = rng.choice([m for m in range(2, 13) if not p or m % p])
    g = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    a, b = g * rng.randint(-3, 3), g * rng.randint(-3, 3)
    if p and k == 2:
        c = (rng.randrange(p), rng.randrange(p))
        while c == (0, 0):
            c = (rng.randrange(p), rng.randrange(p))
        c_text = _vector(c)
    elif p:
        c = rng.randrange(1, p)
        c_text = str(c)
    else:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 4)) ** rng.choice((1, 1, 2, 3))
        c_text = _frac(c)
    ok = _binomial_irreducible(field, n, a, b, c)
    token = "Q" if not p else f"GF({p ** k})"
    text = ("version = 1\nmode = binomial\n\n[base]\n"
            f"field = {token}\nweight_x = {_vector(wx)}\n"
            f"weight_y = {_vector(wy)}\n\n[extension]\n"
            f"n = {n}\na = {a}\nb = {b}\nc = {c_text}\n")
    expect = {"exit": 0, "degree": n} if ok else {"exit": 2}
    return Item("binomial" if ok else "binomial_reducible", "binomial", text,
                expect)


def _lex_block(rng, _fixed):
    label = f"lex-{rng.randrange(10 ** 6)}"
    out = [_group_item(rng, r) for r in (2, 3, 4) for _ in range(3)]
    out.append(_group_item(rng, rng.choice((2, 3, 4)), consistent=False))
    out += [_decide_item(rng, r, label) for r in (2, 3, 4) for _ in range(3)]
    out.append(_decide_item(rng, rng.choice((2, 3, 4)), label,
                            consistent=False))
    fields = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2),
              (7, 2), (0, 1), (0, 1)]
    out += [_binomial_item(rng, p, k) for p, k in fields]
    return out


_BLOCKS = {"qp_split": _qp_block, "ft_split": _ft_block,
           "wide_residue": _wide_block, "lex_decide": _lex_block}


# -- ROADMAP re-anchor inputs ----------------------------------------------------

def roadmap_inputs(seed: int = 0) -> dict:
    """The re-anchor probe inputs of ROADMAP.md, rebuilt from the families
    above: 60 random Q polynomials split at p = 2, 3, 5 (180 calls), 30
    random F_3(t) polynomials at t^2 + 1, and phi_n^2 + 2 at 2 for
    n = 12 .. 18."""
    rng = random.Random(f"roadmap:{seed}")
    polys = [random_q_poly(rng, rng.randint(4, 10)) for _ in range(60)]
    return {
        "q_batch": [_qp_item("random", p, f) for f in polys for p in (2, 3, 5)],
        "f3t_batch": [_ft_item("reanchor_t2p1", 3, list(REANCHOR_PI),
                               random_ft_poly(rng, 3, rng.randint(2, 5)))
                      for _ in range(30)],
        "phi_squared": [phi_squared_item(rng, 2, n) for n in range(12, 19, 2)],
    }
