"""Independent brute-force oracles used to validate the library.

Nothing here calls the code paths under test: group questions are answered
by exhaustive enumeration over bounded coefficient boxes, and p-adic factor
counts by breadth-first Hensel lifting of modular factorizations seeded from
sympy's factorization mod p, squarefreeness over k(t) by Euclid over
k(t) itself rather than the library's fraction-free k[t][x] gcd, and
factors over GF(q) by Berlekamp's splitting against every field constant
rather than the library's randomized equal-degree splitting, irreducibility
over GF(q) by Rabin's test rather than the library's distinct-degree pass
(Ben-Or's test), squarefree
parts over GF(q) by trial division with every monic polynomial rather than
the library's gcds with the derivative, roots over GF(q) by evaluation at
every field element, products in GF(p^n) by a
schoolbook on digit tuples rather than the library's codes and tables,
log/antilog and Zech tables by kernel products for 2 sqrt(q) table entries
and a primitive element by square-and-multiply rather than the library's
linear maps tabulated from the images of a basis,
polynomial products, division, gcds and values over GF(q) by the operators
of the `GFElement` wrapper rather than the library's list kernel, and
the canonical-monomial bookkeeping of an inductive tower by search and one
carry at a time, with each z_j carried into kappa_i through the chain of
level embeddings, rather than the library's closed forms and table of z
images, F_p-linear independence by a general row echelon form rather than
the library's Gauss-Jordan on [B | I], row Hermite normal forms over Z by
elimination over all rows with one reduction pass at the end rather than the
library's insertion of one row at a time into the reduced form, tower values,
classes and residual polynomials by the Fraction recursions that expand
each digit anew per call rather than the library's one graded pass on
integer values, the Newton polygon step by a hull, a bound and a residual
helper apart rather than the library's one `Tower.edges`, the next key
polynomial by a loop over the coefficients of psi with a table of units
rather than the library's single lift of a class, the optimal MacLane chain by the tower that appends every level,
the order of the extensions by a sort on branch paths after the walk
rather than the library's emission in branch order, division, gcds,
phi-adic digits, squarefree parts and factors over GF(q) by the kernel
that copied the dividend and made a quotient at every step, with the
generator of the equal-degree splitting made on every call, rather than
the library's one in-place remainder loop, and problem files
by a cascade of string splits for every value and a second schema loop
rather than the library's one line pattern, command lines by the argparse
parser the CLI used before its table-driven reader, and the Frobenius
defect by the arithmetic and checks of its own that
`raminv.frobenius_defect` made before it became the defect of declared
invariants.
"""

import argparse
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, inf, lcm

import sympy

from valknaf.gf import _SPLIT_SEED, _decode, _distinct_degree, _equal_degree
from valknaf.inductive import INFINITY, Level, Tower, phi_expansion
from valknaf.localsplit import UnresolvedBranchError, _poly_over, _terminal
from valknaf.numtheory import primefactors
from valknaf.ordgroup import LexGroup, RationalVector, _xgcd, subgroup_index
from valknaf.poly import (Poly, _derivative, _monic, _pmul, _power, _trim,
                          poly_gcd, power)
from valknaf.problemfile import (FORMAT_VERSION, SCHEMAS, ProblemFile,
                                 ProblemFileError, _check_type, parse_int)
from valknaf.residuefield import extend_residue, factor_over


def _lex_sign(v):
    for c in v:
        if c:
            return -1 if c < 0 else 1
    return 0


def _lex_lt(a, b):
    return _lex_sign(tuple(x - y for x, y in zip(a, b))) < 0


def _span_elements(gens, rank, bound):
    """All integer combinations of gens with coefficients in [-bound, bound].

    The box is enumerated on integer vectors, the generators scaled by the
    lcm L of their denominators; only the points returned become Fractions.
    """
    fracs = [[Fraction(c) for c in g] for g in gens]
    scale = lcm(*(c.denominator for g in fracs for c in g))
    ints = [[int(c * scale) for c in g] for g in fracs]
    pts = set()
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        v = [0] * rank
        for c, g in zip(coeffs, ints):
            if c:
                for i in range(rank):
                    v[i] += c * g[i]
        pts.add(tuple(v))
    return {tuple(Fraction(c, scale) for c in v) for v in pts}


def initial_set_box(gens_omega, gens_nu, rank, start=4):
    """Witness set {x in big : 0 <= x < every positive small element}.

    Pure box enumeration: candidates range over a coefficient box of the big
    group and are compared with the lex-least positive element of the small
    group's box, the box growing until two consecutive sizes agree.
    """
    prev = None
    for bound in range(start, start + 13, 2):
        omega_pts = _span_elements(gens_omega, rank, bound)
        least = min((v for v in _span_elements(gens_nu, rank, bound)
                     if _lex_sign(v) > 0), default=None)
        cur = sorted(x for x in omega_pts if _lex_sign(x) >= 0
                     and (least is None or _lex_lt(x, least)))
        if cur == prev:
            return cur
        prev = cur
    raise RuntimeError("box enumeration did not stabilize")


def initial_index_box(gens_omega, gens_nu, rank, start=4):
    return len(initial_set_box(gens_omega, gens_nu, rank, start))


def _solve_rational(gens, rank, x):
    """Rational coefficients writing x over gens (Gaussian elim), or None."""
    rows = [[Fraction(c) for c in g] for g in gens]
    target = [Fraction(c) for c in x]
    n = len(rows)
    # augmented system A^T q = x with A rows = gens
    aug = [[rows[j][i] for j in range(n)] + [target[i]] for i in range(rank)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, rank) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(rank):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, rank):
        if aug[i][n]:
            return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][n]
    return sol


def coset_count_box(gens_big, gens_small, rank, start=4):
    """[big : small] by counting fractional-coefficient classes.

    Each big element is written rationally over the small generators; its
    coset is the vector of fractional parts.  The count of distinct classes
    stabilizes once the box covers a set of representatives.
    """
    prev = None
    for bound in range(start, start + 13, 2):
        classes = set()
        for x in _span_elements(gens_big, rank, bound):
            q = _solve_rational(gens_small, rank, x)
            if q is None:
                raise ValueError("element outside the small group's span")
            classes.add(tuple(c - c.__floor__() for c in q))
        if prev == len(classes):
            return len(classes)
        prev = len(classes)
    raise RuntimeError("coset counting did not stabilize")


# ---------------------------------------------------------------------------
# p-adic factor degrees by Hensel lifting


def _prod_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _lift_solutions(factors, target, p, k):
    """All lifts of a factorization mod p^k to mod p^(k+1).

    factors: tuple of coefficient tuples (monic, reduced mod p^k) whose
    product is target mod p^k.  Solves the linear congruence for the
    correction terms delta_i with deg delta_i < deg f_i.
    """
    mod_next = p ** (k + 1)
    pk = p ** k
    prod = [1]
    for f in factors:
        prod = _prod_int(prod, list(f))
    residue = [(t - c) for t, c in zip(target, prod + [0] * (len(target) - len(prod)))]
    assert all(r % pk == 0 for r in residue)
    rhs = [(r // pk) % p for r in residue]
    # unknowns: coefficients of delta_i, i.e. sum_i delta_i * prod_{j != i} f_j
    cofactors = []
    for i in range(len(factors)):
        cof = [1]
        for j, f in enumerate(factors):
            if j != i:
                cof = _prod_int(cof, list(f))
        cofactors.append(cof)
    unknowns = []
    for i, f in enumerate(factors):
        unknowns.extend((i, d) for d in range(len(f) - 1))
    n = len(target) - 1  # degree of target
    # build matrix over F_p: rows = coefficient positions 0..n-1
    mat = [[0] * len(unknowns) for _ in range(n)]
    for col, (i, d) in enumerate(unknowns):
        cof = cofactors[i]
        for e, c in enumerate(cof):
            if d + e < n:
                mat[d + e][col] = c % p
    sols = _solve_affine_mod_p(mat, rhs[:n], p)
    out = []
    for sol in sols:
        new_factors = []
        pos = 0
        for f in factors:
            delta = sol[pos:pos + len(f) - 1]
            pos += len(f) - 1
            nf = tuple((c + pk * d) % mod_next
                       for c, d in zip(f, list(delta) + [0]))
            new_factors.append(nf)
        out.append(tuple(sorted(new_factors)))
    return out


def _solve_affine_mod_p(mat, rhs, p):
    """All solutions of mat * x = rhs over F_p (exhaustive over the kernel)."""
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    aug = [list(mat[i]) + [rhs[i] % p] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] % p), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(a * inv) % p for a in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][cols] % p:
            return []
    free_cols = [c for c in range(cols) if c not in piv_cols]
    sols = []
    for assignment in product(range(p), repeat=len(free_cols)):
        x = [0] * cols
        for c, v in zip(free_cols, assignment):
            x[c] = v
        for i, c in enumerate(piv_cols):
            v = aug[i][cols]
            for fc in free_cols:
                v -= aug[i][fc] * x[fc]
            x[c] = v % p
        sols.append(x)
    return sols


def padic_factor_degrees(int_coeffs, p, max_extra=6):
    """Sorted degrees of the irreducible factors of a monic squarefree
    integer polynomial over the p-adic numbers.

    Seeds with sympy's factorization mod p, then lifts all multiset
    factorizations level by level.  Past 2*v_p(disc) the surviving multisets
    are exactly the groupings of the true p-adic factors, so the finest one
    gives the factor degrees.
    """
    n = len(int_coeffs) - 1
    assert int_coeffs[-1] == 1
    x = sympy.symbols("x")
    g = sympy.Poly(list(reversed(int_coeffs)), x)
    disc = sympy.discriminant(g.as_expr(), x)
    assert disc != 0, "polynomial is not squarefree"
    d_val = 0
    dd = int(disc)
    while dd % p == 0:
        dd //= p
        d_val += 1
    levels = max(2 * d_val + 3, 6)

    base = sympy.Poly(g.as_expr(), x, modulus=p)
    _, fac = sympy.factor_list(base.as_expr(), x, modulus=p)
    parts = []
    for f, mult in fac:
        fp = sympy.Poly(f, x, modulus=p)
        coeffs = [int(c) % p for c in reversed(fp.all_coeffs())]
        parts.extend([tuple(coeffs)] * mult)
    frontier = set()
    for grouping in _group_parts(parts, p):
        frontier.add(grouping)

    k = 1
    shape_history = []
    while k < levels + max_extra:
        new_frontier = set()
        for factors in frontier:
            for lifted in _lift_solutions(factors, int_coeffs, p, k):
                new_frontier.add(lifted)
        assert new_frontier, "all factorizations died while lifting"
        frontier = new_frontier
        shape_history.append(
            frozenset(tuple(sorted(len(f) - 1 for f in fac))
                      for fac in frontier))
        k += 1
    assert shape_history[-1] == shape_history[-2] == shape_history[-3], \
        "factorization shapes still changing at the final level"
    best = max(frontier, key=len)
    return sorted(len(f) - 1 for f in best)


def _group_parts(parts, p):
    """All multiset groupings of mod-p irreducible parts into products."""
    if not parts:
        return {()}
    out = set()

    def rec(remaining, groups):
        if not remaining:
            out.add(tuple(sorted(
                tuple(c % p for c in _prodl(block)) for block in groups)))
            return
        head, rest = remaining[0], remaining[1:]
        for i in range(len(groups)):
            rec(rest, groups[:i] + [groups[i] + [head]] + groups[i + 1:])
        rec(rest, groups + [[head]])

    def _prodl(block):
        acc = [1]
        for f in block:
            acc = _prod_int(acc, list(f))
        return acc

    rec(list(parts), [])
    return out


def squarefree_by_ratfunc_euclid(g):
    """Squarefreeness of g over Q, Q(t) or F_q(t) by Euclid over the field.

    The reference for `localsplit._is_squarefree`: gcd(g, dg/dx) and, in
    characteristic p, its gcd with dg/dt, taken with the Euclidean algorithm
    over the coefficient field itself, so over k(t) every step is `RatFunc`
    arithmetic.
    """
    from valknaf.poly import poly_gcd

    d = poly_gcd(g, g.derivative())
    if g.field.characteristic == 0:
        return d.degree == 0
    g_t = g.map_coeffs(lambda c: c.d_dt(), g.field)
    return poly_gcd(d, g_t).degree == 0


def squarefree_over_q_by_euclid(g):
    """Squarefreeness of g over Q by Euclid on lists of Fractions.

    The reference for `localsplit._is_squarefree` over Q: gcd(g, g') by the
    Euclidean algorithm over Q, each remainder step dividing by the leading
    coefficient as a Fraction, with no `Poly` arithmetic involved.
    """
    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] -= c * bj
            a.pop()
            trim(a)
        return a

    a = trim([Fraction(c) for c in g.coeffs])
    b = trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, rem(a, b)
    return len(a) == 1


def _frobenius_kernel_by_elimination(f):
    """Basis of {b : b^q = b mod f}, by Gauss-Jordan on plain lists.

    b = sum a_j x^j is fixed by Frobenius iff sum a_j (x^(qj) mod f) equals
    b, so a runs over the nullspace of M - I, column j of M holding
    x^(qj) mod f.
    """
    from valknaf.poly import Poly

    field = f.field
    n = f.degree
    xq = Poly.x(field) ** field.q % f
    cols, power = [], Poly.one(field)
    for _ in range(n):
        cols.append([power[i] for i in range(n)])
        power = power * xq % f
    zero, one = wrap(field, 0), wrap(field, 1)
    m = [[wrap(field, cols[j][i]) - (one if i == j else zero)
          for j in range(n)] for i in range(n)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [a * inv for a in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        a = [zero] * n
        a[free] = one
        for r, c in enumerate(pivots):
            a[c] = -m[r][free]
        basis.append(Poly(field, codes(a)))
    return basis


def berlekamp_by_enumeration(f):
    """Irreducible monic factors of a monic squarefree f over GF(q), sorted.

    Deterministic Berlekamp: a non-constant b of the Frobenius kernel
    splits f into the gcds of f with b - c for every constant c of the
    field, one gcd per element of the field.
    """
    from valknaf.poly import Poly, poly_gcd

    field = f.field
    kernel = _frobenius_kernel_by_elimination(f) if f.degree > 1 else []
    if len(kernel) <= 1:
        return [f]
    splitter = next(b for b in kernel if b.degree > 0)
    out = []
    for c in field.elements():
        g = poly_gcd(f, splitter - Poly.constant(field, c))
        if g.degree > 0:
            out.extend(berlekamp_by_enumeration(g))
    return sorted(out, key=lambda g: (g.degree, g.coeffs))


def powmod(base, e, mod):
    out = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def is_irreducible_rabin(g):
    """Rabin's test: only Poly arithmetic, independent of gf internals."""
    q = g.field.q
    d = g.degree
    x = Poly.x(g.field)
    if powmod(x, q ** d, g) != x % g:
        return False
    for r in {r for r in range(2, d + 1) if d % r == 0 and
              all(r % k for k in range(2, r))}:
        h = powmod(x, q ** (d // r), g) - x
        if poly_gcd(h, g).degree > 0:
            return False
    return True


def ref_mul(field, a, b):
    """Product of digit tuples in GF(p^n) = F_p[y]/(m), padded to length n.

    A schoolbook product of the digits, then long division by the monic
    modulus m, one leading digit at a time.
    """
    p, m, n = field.p, field.modulus, field.n
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        for j in range(n + 1):
            prod[k - n + j] = (prod[k - n + j] - c * m[j]) % p
    return tuple(prod[:n] + [0] * (n - len(prod)))


def ref_log_tables(p, n, mul):
    """(g, exp, log, zech) for GF(p^n), the reference of `gf._log_tables`:
    each candidate g tested by square-and-multiply, and the tables of
    x -> x g filled by one kernel product per entry.

    g is the smallest code of order q - 1.  exp[k] = g^k for 0 <= k < 2(q-1),
    so a sum of two logs needs no reduction; log[a] is the k < q - 1 with
    g^k = a (log[0] is unused).  For odd p, zech[k] = log(1 + g^k) for
    0 <= k < 2(q-1), and None at k = (q-1)/2 (and its repeat), where g^k = -1
    and the sum vanishes.  For p = 2 zech is None: addition is XOR.

    The kernel product mul finds g and fills two small tables; the powers
    are stepped without it.  Multiplication by g is F_p-linear on codes, so
    with x = a + p^h b, h = n // 2, the digits of x g are the digit sums of
    a g and (p^h b) g.  The tables hold these products for every a < p^h and
    b < p^(n-h), their digits packed one per w-bit lane of an int, w wide
    enough for a sum of two digits; adding two entries adds lanewise, and
    the low h and high n - h lanes of the sum map back to the code of x g
    through two dicts that reduce each lane mod p.
    """
    q = p ** n
    order = q - 1
    cofactors = [order // r for r in primefactors(order)]
    # a constant lies in F_p, of order dividing p - 1 < q - 1
    g = next(c for c in range(p, q)
             if all(_power(mul, 1, c, e) != 1 for e in cofactors))
    h = n // 2
    lo = p ** h
    w = (2 * p - 2).bit_length()
    shift = w * h
    mask = (1 << shift) - 1

    def lanes(c):
        return sum(d << w * i for i, d in enumerate(_decode(c, p, n)))

    def codes(k, unit):
        # every k lanes of values 0..2p-2 -> unit times the code of them mod p
        out = {0: 0}
        for i in range(k):
            out = {key + (d << w * i): c + d % p * unit * p ** i
                   for key, c in out.items() for d in range(2 * p - 1)}
        return out

    low_g = [lanes(mul(a, g)) for a in range(lo)]
    high_g = [lanes(mul(b * lo, g)) for b in range(q // lo)]
    low, high = codes(h, 1), codes(n - h, lo)
    exp = [1] * order
    log = [0] * q
    x = 1
    for k in range(1, order):
        b, a = divmod(x, lo)
        s = low_g[a] + high_g[b]
        x = low[s & mask] + high[s >> shift]
        exp[k] = x
        log[x] = k
    exp += exp
    if p == 2:
        return g, exp, log, None
    # 1 + c adds 1 to the lowest digit of the code c
    zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp[:order]]
    zech[order // 2] = None
    return g, exp, log, zech + zech


def roots(f):
    """Roots of f in its coefficient field, in canonical element order.

    Evaluates f at every element of the field, with `GFElement` operators.
    """
    field, a = f.field, wrapped(f)
    return [c for c in range(field.q) if not ref_poly_eval(a, wrap(field, c))]


def compose(f, inner):
    """f(inner) by Horner's rule on `Poly` operators."""
    from valknaf.poly import Poly

    acc = Poly.zero(f.field)
    for c in reversed(f.coeffs):
        acc = acc * inner + Poly.constant(f.field, c)
    return acc


def squarefree_by_trial_division(f):
    """[(g, m)] with f = lc * prod g^m, the g monic squarefree coprime.

    The reference for `gf._squarefree`: the monic irreducible factors of f
    by trial division with every monic polynomial in order of degree, each
    divided out as often as it goes, and g the product of those of
    multiplicity m.
    """
    from valknaf.poly import Poly

    field, rest, parts = f.field, f.monic(), {}
    d = 1
    while 2 * d <= rest.degree:
        for low in product(range(field.q), repeat=d):
            g = Poly(field, list(low) + [field.one])
            m = 0
            while (rest % g).is_zero():
                rest, m = rest // g, m + 1
            if m:
                parts[m] = parts.get(m, Poly.one(field)) * g
        d += 1
    if rest.degree > 0:
        parts[1] = parts.get(1, Poly.one(field)) * rest
    return [(g, m) for m, g in sorted(parts.items())]


# -- row Hermite normal form over Z -------------------------------------------
# The reference for `ordgroup._hnf`: the two-phase elimination the library
# used before it inserted one row at a time into the reduced form. It
# eliminates every column by extended gcd first and reduces above the pivots
# only at the end, so its intermediate entries grow far past the result.


def ref_hnf(rows, ncols):
    """Row Hermite normal form of an integer matrix, zero rows dropped:
    (rows, pivot columns), pivots positive, entries above a pivot reduced
    into [0, pivot)."""
    mat = [list(r) for r in rows if any(r)]
    top = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for i in range(top, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        for i in range(top + 1, len(mat)):
            if mat[i][col] == 0:
                continue
            a, b = mat[top][col], mat[i][col]
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            row_top = [s * x + t * y for x, y in zip(mat[top], mat[i])]
            row_i = [-v * x + u * y for x, y in zip(mat[top], mat[i])]
            mat[top], mat[i] = row_top, row_i
        if mat[top][col] < 0:
            mat[top] = [-x for x in mat[top]]
        pivots.append(col)
        top += 1
    for i, col in enumerate(pivots):
        p = mat[i][col]
        for j in range(i):
            q = mat[j][col] // p
            if q:
                mat[j] = [x - q * y for x, y in zip(mat[j], mat[i])]
    return tuple(map(tuple, mat[:top])), tuple(pivots)


# -- the Frobenius defect -----------------------------------------------------
# The reference for `raminv.frobenius_defect`: its body before it read its
# data as the declared invariants of K/K^p and left the checks to `raminv`'s
# validation.


def frobenius_defect_reference(k_degree, gamma, kappa_insep_degree, p):
    """k_degree / ([Gamma : p*Gamma] * kappa_insep_degree), a power of p;
    gamma is a LexGroup or a declared positive int index; ValueError on
    inconsistent data."""
    if not sympy.isprime(p):
        raise ValueError("p must be prime")
    if isinstance(gamma, LexGroup):
        index = subgroup_index(gamma, gamma.scale(p))
        if index is inf:
            raise ValueError("[Gamma : p*Gamma] must be finite")
    elif isinstance(gamma, int) and gamma >= 1:
        index = gamma
    else:
        raise ValueError("declared index must be a positive integer")
    if k_degree < 1 or kappa_insep_degree < 1:
        raise ValueError("degrees must be positive integers")
    denom = index * kappa_insep_degree
    if k_degree % denom != 0:
        raise ValueError(
            f"index * residue part = {denom} does not divide "
            f"[K:K^p] = {k_degree}")
    d = k_degree // denom
    n = d
    while n % p == 0:
        n //= p
    if n != 1:
        raise ValueError(f"Frobenius defect {d} is not a power of {p}")
    return d


# -- row echelon form over a finite field -------------------------------------
# The reference for `residuefield.linear_decomposer`: the general reduced
# row echelon form over GF(q) that the library used before it inverted
# [B | I] by Gauss-Jordan on ints mod p.


def row_reduce(F, rows) -> dict:
    """Bring rows (lists of codes of F) to reduced row echelon form.

    Works in place; returns {pivot column: row index}, the pivot rows
    leading the list in column order.
    """
    sub, mul = F.sub, F.mul
    cols = len(rows[0]) if rows else 0
    piv_of_col = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        # rows r, r + 1, ... are zero left of column c
        pivot = rows[r] = [0] * c + [mul(a, inv) for a in rows[r][c:]]
        for i in range(len(rows)):
            fct = rows[i][c]
            if i != r and fct:
                rows[i] = rows[i][:c] + [sub(a, mul(fct, b)) if b else a
                                         for a, b in zip(rows[i][c:],
                                                         pivot[c:])]
        piv_of_col[c] = r
        r += 1
    return piv_of_col


# -- polynomials over GF(q) with GFElement operators ----------------------------
#
# The reference for the library's polynomial kernel over finite fields: the
# coefficients are `GFElement` wrappers, lists lowest degree first, and all
# arithmetic is the wrappers' own operators, one element at a time.


def wrap(field, code):
    """The printable wrapper of an element code."""
    return field.element(field.coords(code))


def wrapped(f):
    """The coefficients of a Poly over GF(q) as wrappers."""
    return [wrap(f.field, c) for c in f.coeffs]


def codes(a):
    """The codes of a wrapper list, without trailing zeros."""
    out = [x.field.coerce(x) for x in a]
    while out and not out[-1]:
        out.pop()
    return out


def _ref_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def ref_poly_mul(a, b):
    if not a or not b:
        return []
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def ref_poly_divmod(a, b):
    """(quotient, remainder) by schoolbook long division, b nonzero."""
    r = _ref_trim(list(a))
    zero = b[-1] - b[-1]
    q = [zero] * max(len(r) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(r) >= len(b):
        c = r[-1] * inv
        shift = len(r) - len(b)
        q[shift] = c
        for j, y in enumerate(b):
            r[shift + j] = r[shift + j] - c * y
        r.pop()
        _ref_trim(r)
    return _ref_trim(q), r


def ref_poly_monic(a):
    if not a:
        return []
    inv = a[-1].inverse()
    return [x * inv for x in a]


def ref_poly_gcd(a, b):
    """Monic gcd by Euclid."""
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    while b:
        a, b = b, ref_poly_divmod(a, b)[1]
    return ref_poly_monic(a)


def ref_poly_eval(a, x):
    """Value at the wrapper x, by Horner's rule."""
    acc = x - x
    for c in reversed(a):
        acc = acc * x + c
    return acc


def canonical_exps_by_search(tower, i, w):
    """Exponents of the canonical monomial of value w at level i, by search.

    The reference for `Tower.canonical_exps`: at each level j, from i down,
    a_j is the first a in 0..e_j - 1 that leaves w - a * mu_j in the value
    group of the levels below.
    """
    w = Fraction(w)
    exps = [0] * (i + 1)
    for j in range(i, 0, -1):
        lev = tower.levels[j - 1]
        prev_den = lev.denom // lev.e
        for a in range(lev.e):
            if ((w - a * lev.mu) * prev_den).denominator == 1:
                exps[j] = a
                w -= a * lev.mu
                break
        else:
            raise ValueError(f"{w} is not in the level-{i} value group")
    if w.denominator != 1:
        raise ValueError("value is not in the value group")
    exps[0] = int(w)
    return exps


def z_by_embeddings(tower, j, i):
    """Image of z_j in kappa_i (j <= i), through the embeddings of levels
    j + 1, ..., i one after another."""
    x = tower.levels[j - 1].ext.root
    for m in range(j + 1, i + 1):
        x = tower.levels[m - 1].ext.embed(x)
    return x


def normalize_exps_by_steps(tower, i, exps):
    """Unit and canonical exponents of the monomial exps, one carry a step.

    The reference for `Tower.normalize_exps`: while exps[j] >= e_j, trade
    phi_j^(e_j) for z_j * Q_j; while exps[j] < 0, trade in the other way.
    Mutates exps like the library does.
    """
    F = tower.field_at(i)
    unit = F.one
    for j in range(i, 0, -1):
        lev = tower.levels[j - 1]
        while exps[j] >= lev.e:
            exps[j] -= lev.e
            unit = F.mul(unit, z_by_embeddings(tower, j, i))
            for idx, q in enumerate(lev.q_exps):
                exps[idx] += q
        while exps[j] < 0:
            exps[j] += lev.e
            unit = F.mul(unit, F.inv(z_by_embeddings(tower, j, i)))
            for idx, q in enumerate(lev.q_exps):
                exps[idx] -= q
    return unit


# -- tower values and classes, one expansion per call --------------------------
# The references for `Tower.grade` and `Tower.residue`: `tower_val` and
# `tower_reduce_at` are the recursions `Tower._val` and `Tower.reduce_at`
# before the graded pass, on Fraction values; `reduce_at` expands each digit
# again and reruns `_val` one level down.  `segment_residual` is the
# residual polynomial of one polygon edge as it was on those values.


def value_units(tower, w):
    """The value w, a Fraction or int, as an int in units of 1/tower.denom."""
    w = Fraction(w) * tower.denom
    if w.denominator != 1:
        raise ValueError(f"{w / tower.denom} is not in the value group")
    return w.numerator


def tower_val(tower, i, f):
    """Value of f at level i of tower, a Fraction (or int at level 0)."""
    if f.is_zero():
        return INFINITY
    if i == 0:
        if f.degree > 0:
            raise ValueError("stage-0 values are defined for constants")
        return tower.base.value_of(f[0])
    lev = tower.levels[i - 1]
    best = INFINITY
    for j, digit in enumerate(phi_expansion(f, lev.phi)):
        if digit.is_zero():
            continue
        w = tower_val(tower, i - 1, digit) + j * lev.mu
        if w < best:
            best = w
    return best


def tower_reduce_at(tower, i, f):
    """Class of f at its own value: r in kappa_i with [f] = r * monomial."""
    if f.is_zero():
        raise ValueError("cannot reduce zero")
    if i == 0:
        a = f[0]
        return tower.base.shifted_reduce(a, tower.base.value_of(a))
    lev = tower.levels[i - 1]
    digits = phi_expansion(f, lev.phi)
    vals = [None if d.is_zero() else tower_val(tower, i - 1, d)
            for d in digits]
    w = min(v + j * lev.mu for j, v in enumerate(vals) if v is not None)
    ext, below = lev.ext, tower.field_at(i - 1)
    F = ext.new_field
    total = F.zero
    common_a = None
    for j, v in enumerate(vals):
        if v is None or v + j * lev.mu != w:
            continue
        s, a = divmod(j, lev.e)
        if common_a is None:
            common_a = a
        assert a == common_a, "tight exponents disagree mod e"
        r = tower_reduce_at(tower, i - 1, digits[j])
        u = tower.unit_at(i - 1, value_units(tower, v), lev.q_exps, s)
        total = F.add(total, F.mul(ext.embed(below.mul(r, u)),
                                   power(F, ext.root, s)))
    if not total:
        raise ValueError("graded reduction vanished; tower is corrupt")
    return total


def segment_residual(tower, digits, vals, lam, j0, j1):
    """Residual polynomial of the polygon segment from j0 to j1, slope -lam.

    digits is the key-adic expansion of the current polynomial, vals maps
    the nonzero digit positions to their `tower_val` values.
    """
    k = tower.depth
    kappa = tower.field_at(k)
    e = (lam * tower.denom).denominator
    q_exps = tower.canonical_exps(k, value_units(tower, e * lam))
    w0 = vals[j0] + j0 * lam
    assert (j1 - j0) % e == 0, "segment width must be a multiple of e"
    coeffs = []
    for t in range((j1 - j0) // e + 1):
        j = j0 + t * e
        val = vals.get(j)
        if val is None or val + j * lam != w0:
            coeffs.append(kappa.zero)
            continue
        r = tower_reduce_at(tower, k, digits[j])
        coeffs.append(kappa.mul(
            r, tower.unit_at(k, value_units(tower, val), q_exps, t)))
    return Poly(kappa, coeffs)


# -- the next key, one coefficient of psi at a time ----------------------------
# The reference for `Tower.lift_key`: `lift_key` as it was with its own
# table of units and a loop over the coefficients of psi, one `lift_at` per
# coefficient; psi is passed in, not read off the level.


def lift_key_reference(tower, psi):
    """Key polynomial of the next stage, from the top level's psi.

    phi' = phi^(e*f') + sum_{t<f'} C_t phi^(t*e) with the C_t chosen so
    the residual polynomial of phi' along (phi, mu) is a unit multiple
    of psi; then V_new(phi') = f'*e*mu and the minimal polynomial of the
    new residue generator is psi.
    """
    lev = tower.levels[-1]
    k = tower.depth - 1  # lifting happens over the tower below the top
    e = lev.e
    fdeg = psi.degree
    step = e * tower.mu_units[-1]  # e * mu in units of 1/D
    units = [tower.unit_at(k, (fdeg - t) * step, lev.q_exps, t)
             for t in range(fdeg + 1)]
    F = tower.field_at(k)
    acc = lev.phi ** (e * fdeg)
    for t in range(fdeg):
        c = psi[t]
        if not c:
            continue
        target = F.mul(F.mul(c, units[fdeg]), F.inv(units[t]))
        coeff = tower.lift_at(k, target, (fdeg - t) * step)
        acc = acc + coeff * lev.phi ** (t * e)
    return acc


# -- the appending tower ------------------------------------------------------
# The reference for `Tower.augment`: `augment` as it was before the chain was
# kept optimal, appending every level, one with e*f = 1 on top included.


def augment_appending(tower, phi, lam, psi):
    """tower with the level (phi -> lam) appended, chosen residual factor psi."""
    lam = Fraction(lam)
    prev_den = tower.denom
    scaled = lam * prev_den  # e * lam is scaled.numerator / prev_den
    e = scaled.denominator
    q_exps = tower.canonical_exps(tower.depth, scaled.numerator)
    ext = extend_residue(tower.field_at(tower.depth), psi)
    zs = tuple(ext.embed(z_by_embeddings(tower, j, tower.depth))
               for j in range(1, tower.depth + 1)) + (ext.root,)
    level = Level(phi=phi, mu=lam, e=e, f=psi.degree, ext=ext, zs=zs,
                  q_exps=q_exps, denom=prev_den * e)
    return Tower(tower.base, tower.levels + (level,))


# -- the kernel that copied at every step --------------------------------------
# The references for `poly._preduce` and its callers: `_pdivmod` as it was
# before the one in-place remainder loop, copying the dividend and making a
# quotient on every call; `_pgcd` taking each Euclid step through it;
# `phi_expansion` dividing `Poly`s; `gf._squarefree` running its whole loop
# on squarefree input; and `gf.factor` making its generator on every call.


def pdivmod_copying(F, a, b):
    """(quotient, remainder) of a by b != []."""
    dq, db = len(a) - len(b), len(b) - 1
    if dq < 0:
        return [], list(a)
    sub, neg, mul = F.sub, F.neg, F.mul
    inv = None if b[-1] == F.one else F.inv(b[-1])
    r = list(a)
    q = [F.zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = r[k + db]
        if c:
            if inv is not None:
                c = mul(c, inv)
            q[k] = c
            for j in range(db):
                if b[j]:
                    y = mul(c, b[j])
                    x = r[k + j]
                    r[k + j] = sub(x, y) if x else neg(y)
    del r[db:]
    return q, _trim(r)


def pgcd_copying(F, a, b):
    """Monic gcd of a and b by the Euclidean algorithm."""
    while b:
        a, b = b, pdivmod_copying(F, a, b)[1]
    return _monic(F, a)


def phi_expansion_by_poly_division(f, phi):
    """Digits of f in base phi (ascending), each of degree < deg phi."""
    if f.is_zero():
        return [f]
    digits = []
    while not f.is_zero():
        f, r = divmod(f, phi)
        digits.append(r)
    return digits


def squarefree_full_loop(F, f):
    """[(g, m)] with monic f = prod g^m, the g monic squarefree coprime."""
    out = {}

    def put(g, m):
        if len(g) > 1:
            out[m] = _pmul(F, out[m], g) if m in out else g

    c = pgcd_copying(F, f, _derivative(F, f))
    w = pdivmod_copying(F, f, c)[0]
    i = 1
    while len(w) > 1:
        y = pgcd_copying(F, w, c)
        put(pdivmod_copying(F, w, y)[0], i)
        w = y
        c = pdivmod_copying(F, c, y)[0]
        i += 1
    if len(c) > 1:
        root = [_power(F.mul, 1, a, F.q // F.p) for a in c[::F.p]]
        for g, m in squarefree_full_loop(F, root):
            put(g, m * F.p)
    return [(g, m) for m, g in sorted(out.items())]


def factor_seeding_each_call(f):
    """Monic irreducible factors with multiplicity, deterministic order."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    F = f.field
    lead = f.leading()
    rng = random.Random(_SPLIT_SEED)
    pairs = []
    for g, m in squarefree_full_loop(F, _monic(F, f.coeffs)):
        for h, d in _distinct_degree(F, g):
            pairs += [(e, m) for e in _equal_degree(F, h, d, rng)]
    pairs.sort(key=lambda t: (len(t[0]), t[0]))
    return lead, [(Poly(F, g), m) for g, m in pairs]


# -- the polygon step in localsplit -------------------------------------------
# The references for `Tower.edges`: the lower hull, the bound that skips
# edges at or below the key's own value, and the residual polynomial of one
# edge, as `localsplit` computed them before the polygon step moved into the
# tower.


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_hull(points):
    """Edges ((x1, y1), (x2, y2)) of the lower convex hull, points with
    increasing x."""
    hull = []
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return list(zip(hull, hull[1:]))


def edge_bound(tower):
    """The key's own value e*f*mu of the top level in units of 1/D, or None
    at depth 0; an edge of slope -num / (e_seg * D) with
    num <= e_seg * bound is skipped."""
    k = tower.depth
    bound = None
    if k:
        lev = tower.levels[-1]
        bound = lev.e * lev.f * tower.mu_units[k]
    return bound


def _segment_residual(tower, grades, num: int, e: int, j0: int,
                      j1: int) -> Poly:
    """Residual polynomial of the polygon segment from j0 to j1.

    grades maps the positions of the nonzero digits of the current
    polynomial in the key to their `Tower.grade` (value, parts); the
    segment's slope is -num / (e * D) with num / e in lowest terms, D the
    tower's `denom`.  The digits on the segment make a `line_residual`
    through j0, with nonzero constant and leading coefficients.
    """
    k = tower.depth
    v0 = grades[j0][0]
    line = {j: graded for j, graded in grades.items()
            if j0 <= j <= j1 and (graded[0] - v0) * e == (j0 - j) * num}
    # e * (-slope) is num / D
    return tower.line_residual(k, line, j0, e, tower.canonical_exps(k, num))


# -- the MacLane walk, sorted afterwards --------------------------------------
# The reference for the order of `localsplit.split_extensions`: `_explore` as
# it was when each factor carried its branch path, a tuple of (slope, psi's
# sort key) pairs closed by (inf, ()) for an exact key divisor, and the
# factors were sorted by it once the walk was done.


def split_extensions_sorted(v, g, depth_limit=16):
    """The factors of split_extensions(v, g), sorted by branch path."""
    g = _poly_over(v, g)
    found = []
    _explore_with_paths(Tower(v), Poly.x(v.field), g, (), (), found,
                        depth_limit)
    found.sort(key=lambda item: item[0])
    return [fac for _, fac in found]


def _explore_with_paths(tower, key, G, path, steps, out, depth_limit):
    digits = phi_expansion(G, key)
    if digits[0].is_zero():
        out.append((path + ((inf, ()),), _terminal(
            key.degree, tower.denom, tower.residue_product(),
            steps + (f"[deg {key.degree}] exact key divisor",))))
        G = G // key
        if G.degree < 1:
            return
        digits = digits[1:]
    k = tower.depth
    grades = {j: tower.grade(k, d) for j, d in enumerate(digits)
              if not d.is_zero()}
    bound = edge_bound(tower)
    for (x1, y1), (x2, y2) in _lower_hull(
            [(j, graded[0]) for j, graded in grades.items()]):
        common = gcd(y1 - y2, x2 - x1)
        num, e_seg = (y1 - y2) // common, (x2 - x1) // common
        if bound is not None and num <= e_seg * bound:
            continue
        slope = Fraction(-num, e_seg * tower.denom)
        resid = _segment_residual(tower, grades, num, e_seg, x1, x2)
        for psi, mult in factor_over(tower.field_at(tower.depth), resid):
            branch = path + ((slope, (psi.degree, psi.coeffs)),)
            step = (f"[deg {key.degree}] slope {slope}, residual factor "
                    f"{psi} (multiplicity {mult})")
            if mult == 1:
                out.append((branch, _terminal(
                    key.degree * e_seg * psi.degree, tower.denom * e_seg,
                    tower.residue_product() * psi.degree,
                    steps + (step,))))
                continue
            if len(path) >= depth_limit:
                raise UnresolvedBranchError(depth_limit, steps + (step,))
            deeper = tower.augment(key, -slope, psi)
            _explore_with_paths(deeper, deeper.lift_key(), G, branch,
                                steps + (step,), out, depth_limit)


# -- the problem-file grammar as a cascade of string splits ---------------------
# The reference for `problemfile.parse_problem`: each line is matched twice,
# a value is cut at its top-level commas by a character loop and each piece
# classified by `fullmatch`, and the schema is checked in a second loop once
# every line is read.  The type check `_check_type` is shared with the
# library.

_SECTION_RE = re.compile(r"\[([a-z_]+)\]")
_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*)")
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")
_WORD_RE = re.compile(r"[A-Za-z][-A-Za-z0-9_^()]*")


def _split_top(s: str, line: int) -> list:
    """Split on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ProblemFileError("unbalanced parentheses", line)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ProblemFileError("unbalanced parentheses", line)
    parts.append("".join(cur))
    return parts


def _parse_rational(s: str, line: int):
    """The rational s: an int when it is integral, a Fraction otherwise."""
    m = _RATIONAL_RE.fullmatch(s.strip())
    if not m:
        raise ProblemFileError(f"malformed rational {s.strip()!r}", line)
    num, den = parse_int(m.group(1), line), parse_int(m.group(2) or "1", line)
    if den == 0:
        raise ProblemFileError("zero denominator", line)
    x = Fraction(num, den)
    return x.numerator if x.denominator == 1 else x


def _parse_vector(s: str, line: int) -> RationalVector:
    body = s.strip()[1:-1].strip()
    if not body:
        raise ProblemFileError("empty vector", line)
    return RationalVector(_parse_rational(p, line) for p in _split_top(body, line))


def _parse_value(s: str, line: int):
    s = s.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ProblemFileError("unterminated list", line)
        body = s[1:-1].strip()
        if not body:
            return ()
        return tuple(_parse_item(p, line) for p in _split_top(body, line))
    return _parse_item(s, line)


def _parse_item(s: str, line: int):
    s = s.strip()
    if s.startswith("("):
        if not s.endswith(")"):
            raise ProblemFileError("unterminated vector", line)
        return _parse_vector(s, line)
    if _RATIONAL_RE.fullmatch(s):
        return _parse_rational(s, line)
    if _WORD_RE.fullmatch(s):
        return s
    raise ProblemFileError(f"malformed value {s!r}", line)


def parse_problem_reference(text) -> ProblemFile:
    """Parse problem text (bytes or str) and check it against its mode schema."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemFileError(f"not valid UTF-8: {exc}") from None

    version = mode = None
    # raw[name] = (header line, list of (key, value, line))
    raw, order, current = {}, [], None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.fullmatch(line)
        if m:
            name = m.group(1)
            if name in raw:
                raise ProblemFileError(f"duplicate section [{name}]", lineno)
            raw[name] = (lineno, [])
            order.append(name)
            current = name
            continue
        m = _ASSIGN_RE.fullmatch(line)
        if not m:
            raise ProblemFileError(f"expected `key = value`, got {line!r}", lineno)
        key, value = m.group(1), _parse_value(m.group(2), lineno)
        if current is None:
            if key == "version":
                if version is not None:
                    raise ProblemFileError("duplicate version", lineno)
                version = _check_type(key, value, "int", lineno)
                if version != FORMAT_VERSION:
                    raise ProblemFileError(
                        f"unsupported format version {version} "
                        f"(expected {FORMAT_VERSION})", lineno)
            elif key == "mode":
                if mode is not None:
                    raise ProblemFileError("duplicate mode", lineno)
                mode = _check_type(key, value, "word", lineno)
                if mode not in SCHEMAS:
                    raise ProblemFileError(
                        f"unknown mode {mode!r} (expected one of "
                        f"{', '.join(sorted(SCHEMAS))})", lineno)
            else:
                raise ProblemFileError(
                    f"unknown top-level key {key!r}", lineno)
        else:
            raw[current][1].append((key, value, lineno))

    if version is None:
        raise ProblemFileError("missing `version = 1`")
    if mode is None:
        raise ProblemFileError("missing `mode = ...`")

    schema = SCHEMAS[mode]
    sections = []
    for name in order:
        header_line, items = raw[name]
        keyspec = schema.get(name)
        if keyspec is None:
            raise ProblemFileError(
                f"section [{name}] is not allowed in mode {mode}", header_line)
        seen, entries = {}, []
        for key, value, lineno in items:
            tag = keyspec.get(key)
            if tag is None:
                raise ProblemFileError(
                    f"unknown key {key!r} in section [{name}]", lineno)
            if key in seen and not tag.endswith("+"):
                raise ProblemFileError(f"duplicate key {key!r}", lineno)
            seen[key] = True
            entries.append((key, _check_type(key, value, tag.rstrip("?+"), lineno)))
        for key, tag in keyspec.items():
            if not tag.endswith("?") and key not in seen:
                raise ProblemFileError(
                    f"section [{name}] is missing key {key!r}", header_line)
        sections.append((name, tuple(entries)))
    for name in schema:
        if name not in raw:
            raise ProblemFileError(f"mode {mode} requires a section [{name}]")

    return ProblemFile(version=version, mode=mode, sections=tuple(sections))


# -- the command line, as argparse read it ---------------------------------------
#
# The reference for `cli._parse_args`: the argparse parser that the CLI built
# before it read its command line from a table, kept as it was.


class ArgvError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgvError(f"{self.prog}: error: {message}\n"
                        f"{self.format_usage().rstrip()}")


def argv_reference() -> _Parser:
    parser = _Parser(prog="valknaf",
                     description="ramification invariants and the "
                                 "essentially-finite-type criterion")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, file_required=True):
        p.add_argument("--file", metavar="PATH",
                       required=file_required,
                       help="problem file (- for stdin)")
        p.add_argument("--porcelain", action="store_true",
                       help="stable machine-readable key=value rows")

    with_io(sub.add_parser("group", help="index and initial index of a "
                                         "lex group extension"))
    decide = sub.add_parser("decide", help="Knaf verdict on declared "
                                           "invariants or a fixture")
    decide.add_argument("fixture", nargs="?", metavar="FIXTURE",
                        help="named fixture to decide")
    with_io(decide, file_required=False)
    split = sub.add_parser("split", help="extensions of a rank-1 valuation "
                                         "to K[x]/(g)")
    with_io(split)
    split.add_argument("--depth", type=int, default=16, metavar="N",
                       help="recursion depth limit (default 16)")
    with_io(sub.add_parser("binomial", help="tame binomial extension of a "
                                            "monomial valuation"))
    fixtures_p = sub.add_parser("fixtures", help="list the fixture catalog")
    fixtures_p.add_argument("name", nargs="?", metavar="FIXTURE",
                            help="show a single fixture")
    fixtures_p.add_argument("--porcelain", action="store_true",
                            help="stable machine-readable key=value rows")
    return parser
