"""Independent brute-force oracles used to validate the library.

Nothing here calls the code paths under test: group questions are answered
by exhaustive enumeration over bounded coefficient boxes, and p-adic factor
counts by breadth-first Hensel lifting of modular factorizations seeded from
sympy's factorization mod p, squarefreeness over k(t) by Euclid over
k(t) itself rather than the library's fraction-free k[t][x] gcd, and
factors over GF(q) by Berlekamp's splitting against every field constant
rather than the library's randomized equal-degree splitting, roots over
GF(q) by evaluation at every field element, products in GF(p^n) by a
schoolbook on digit tuples rather than the library's codes and tables,
polynomial products, division, gcds and values over GF(q) by the operators
of the `GFElement` wrapper rather than the library's list kernel, and
the canonical-monomial bookkeeping of an inductive tower by search and one
carry at a time rather than the library's closed forms.
"""

from fractions import Fraction
from itertools import product

import sympy


def _lex_sign(v):
    for c in v:
        if c:
            return -1 if c < 0 else 1
    return 0


def _lex_lt(a, b):
    return _lex_sign(tuple(x - y for x, y in zip(a, b))) < 0


def _span_elements(gens, rank, bound):
    """All integer combinations of gens with coefficients in [-bound, bound]."""
    if not gens:
        return {tuple([Fraction(0)] * rank)}
    pts = set()
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        v = [Fraction(0)] * rank
        for c, g in zip(coeffs, gens):
            if c:
                for i in range(rank):
                    v[i] += c * Fraction(g[i])
        pts.add(tuple(v))
    return pts


def initial_set_box(gens_omega, gens_nu, rank, start=4):
    """Witness set {x in big : 0 <= x < every positive small element}.

    Pure box enumeration: candidates and killers both range over coefficient
    boxes, the box growing until two consecutive sizes agree.
    """
    prev = None
    for bound in range(start, start + 13, 2):
        omega_pts = _span_elements(gens_omega, rank, bound)
        nu_pos = [v for v in _span_elements(gens_nu, rank, bound)
                  if _lex_sign(v) > 0]
        zero = tuple([Fraction(0)] * rank)
        cur = sorted(
            (x for x in omega_pts
             if _lex_sign(x) >= 0 and all(_lex_lt(x, v) for v in nu_pos)),
            key=lambda t: t)
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
    return sorted(out, key=Poly.sort_key)


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


def roots(f):
    """Roots of f in its coefficient field, in canonical element order.

    Evaluates f at every element of the field, with `GFElement` operators.
    """
    field, a = f.field, wrapped(f)
    return [c for c in range(field.q) if not ref_poly_eval(a, wrap(field, c))]


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
    out = [x.int_value() for x in a]
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
        prev_den = tower.denom_at(j - 1)
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
            unit = F.mul(unit, tower.z_up(j, i))
            for idx, q in enumerate(lev.q_exps):
                exps[idx] += q
        while exps[j] < 0:
            exps[j] += lev.e
            unit = F.mul(unit, F.inv(tower.z_up(j, i)))
            for idx, q in enumerate(lev.q_exps):
                exps[idx] -= q
    return unit
