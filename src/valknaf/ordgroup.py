"""Finitely generated subgroups of Q^r ordered lexicographically.

A group is stored through a canonical basis: clear denominators, bring the
integer generator matrix to row Hermite normal form, and restore the scale.
Two generating sets of the same subgroup therefore produce equal `LexGroup`
objects, and containment and index questions reduce to exact integer
linear algebra on the basis rows.

The value groups of valuations of finite rank embed into some Q^r with the
lexicographic order, which is why everything here is phrased for Q^r.  The
`initial_index` of a pair of groups counts the lex-nonnegative elements of the
big group lying strictly below every lex-positive element of the small group;
it is the combinatorial half of the finite-type criterion in `raminv`.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm


class RationalVector(tuple):
    """Immutable vector in Q^r; componentwise arithmetic, hashable."""

    def __new__(cls, coords):
        return super().__new__(cls, (Fraction(c) for c in coords))

    def __add__(self, other):
        return RationalVector(a + b for a, b in zip(self, other, strict=True))

    def __sub__(self, other):
        return RationalVector(a - b for a, b in zip(self, other, strict=True))

    def __neg__(self):
        return RationalVector(-a for a in self)

    def __mul__(self, c):
        return RationalVector(a * Fraction(c) for a in self)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self) + ")"


def lex_compare(x, y) -> int:
    """-1, 0 or 1 according to the lexicographic order on Q^r."""
    if len(x) != len(y):
        raise ValueError(f"vectors of lengths {len(x)} and {len(y)}")
    x, y = tuple(x), tuple(y)
    return (x > y) - (x < y)


def _xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf(rows, ncols):
    """Row Hermite normal form of an integer matrix, zero rows dropped.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    The result depends only on the row lattice.
    """
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
        pivots.append((top, col))
        top += 1
    for i, col in pivots:
        p = mat[i][col]
        for j in range(i):
            q = mat[j][col] // p
            if q:
                mat[j] = [x - q * y for x, y in zip(mat[j], mat[i])]
    return mat[:top]


def _pivot(row) -> int:
    for j, c in enumerate(row):
        if c:
            return j
    raise ValueError("zero row has no pivot")


class LexGroup:
    """Finitely generated subgroup of Q^r with the lex order on Q^r.

    `rank` is the ambient dimension r; the group's own rank is
    `len(self.basis)`.  The basis is the (scaled) Hermite normal form of any
    generating set, so equal groups compare equal.
    """

    def __init__(self, rank, generators=()):
        self.rank = int(rank)
        gens = [RationalVector(g) for g in generators]
        for g in gens:
            if len(g) != self.rank:
                raise ValueError(
                    f"generator {g} has length {len(g)}, expected {self.rank}")
        den = 1
        for g in gens:
            for c in g:
                den = lcm(den, c.denominator)
        int_rows = [[int(c * den) for c in g] for g in gens]
        self.basis = tuple(
            RationalVector(Fraction(a, den) for a in row)
            for row in _hnf(int_rows, self.rank))

    def __eq__(self, other):
        return (isinstance(other, LexGroup)
                and self.rank == other.rank and self.basis == other.basis)

    def __hash__(self):
        return hash((self.rank, self.basis))

    def __repr__(self):
        gens = ", ".join(repr(b) for b in self.basis)
        return f"LexGroup({self.rank}, [{gens}])"

    def is_zero(self):
        return not self.basis

    def solve(self, x):
        """Integer coefficients expressing x over self.basis, or None."""
        x = RationalVector(x)
        if len(x) != self.rank:
            raise ValueError("ambient rank mismatch")
        rem = list(x)
        coeffs = []
        for row in self.basis:
            c = _pivot(row)
            q = rem[c] / row[c]
            if q.denominator != 1:
                return None
            q = int(q)
            coeffs.append(q)
            if q:
                for j in range(c, self.rank):
                    rem[j] -= q * row[j]
        if any(rem):
            return None
        return coeffs

    def contains(self, x) -> bool:
        return self.solve(x) is not None

    __contains__ = contains

    def scale(self, c):
        """The group c * self; c must be a positive rational."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scaling factor must be positive")
        return LexGroup(self.rank, [c * b for b in self.basis])


def subgroup_index(group: LexGroup, subgroup: LexGroup):
    """[group : subgroup]; a positive int, or math.inf.

    Raises ValueError if subgroup is not contained in group.  At equal rank
    the two HNF bases share their pivot columns, so the change of basis is
    triangular and the index is the product of the pivot ratios.
    """
    if group.rank != subgroup.rank:
        raise ValueError("ambient rank mismatch")
    for h in subgroup.basis:
        if group.solve(h) is None:
            raise ValueError(f"{h} is not an element of the larger group")
    if len(subgroup.basis) < len(group.basis):
        return inf
    index = 1
    for h, b in zip(subgroup.basis, group.basis):
        c = _pivot(b)
        index *= h[c] / b[c]
    return int(index)


def initial_index(group: LexGroup, subgroup: LexGroup) -> int:
    """Number of elements of the big group in the lex interval
    [0, smallest positive part of the small group).

    An element of the big group below every positive element of the small
    group lies on the ray of the big group's last basis row, so eps is the
    ratio of the two groups' last rows.
    """
    if subgroup_index(group, subgroup) is inf:
        raise ValueError("initial segment is infinite for infinite index")
    if group.is_zero():
        return 1
    omega, nu = group.basis[-1], subgroup.basis[-1]
    c = _pivot(omega)
    return int(nu[c] / omega[c])


def initial_set(group: LexGroup, subgroup: LexGroup) -> list:
    """All x in the big group with 0 <=lex x <lex every positive element
    of the small group.  Requires finite index; sorted lex ascending."""
    eps = initial_index(group, subgroup)
    if group.is_zero():
        return [RationalVector([0] * group.rank)]
    return [k * group.basis[-1] for k in range(eps)]
