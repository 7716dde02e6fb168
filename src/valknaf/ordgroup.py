"""Finitely generated subgroups of Q^r ordered lexicographically.

A group G is stored as (den, rows): den is the least positive integer with
den * G in Z^r, and rows is the integer row Hermite normal form of den * G,
built by inserting the generators one at a time into the reduced form.  Both
are canonical, so two generating sets of one group give equal `LexGroup`
objects, and containment, index and initial index are integer linear algebra
on the rows; `RationalVector`s are built only for `basis` and printing.

The value groups of valuations of finite rank embed into some Q^r with the
lexicographic order, which is why everything here is phrased for Q^r.  The
`initial_index` of a pair of groups counts the lex-nonnegative elements of the
big group lying strictly below every lex-positive element of the small group;
it is the combinatorial half of the finite-type criterion in `raminv`.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm

from .poly import QQ


class RationalVector(tuple):
    """Immutable vector in Q^r; componentwise arithmetic, hashable.

    Every entry, also of an operation's result, follows `poly.QQ`'s
    convention: an int when it is integral and a Fraction otherwise.
    """

    def __new__(cls, coords):
        return super().__new__(cls, map(QQ.coerce, coords))

    def __add__(self, other):
        return RationalVector(a + b for a, b in zip(self, other, strict=True))

    def __mul__(self, c):
        return RationalVector(a * Fraction(c) for a in self)

    __rmul__ = __mul__

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self) + ")"


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
    The rows (tuples) and their pivot columns depend only on the row lattice.
    Each row joins `basis` (pivot column -> row), the reduced form of the
    rows before, so entries stay the size of the result.
    """
    basis = {}
    for v in rows:
        for c in range(ncols):
            if not v[c]:
                continue
            if c not in basis:
                basis[c] = list(v) if v[c] > 0 else [-x for x in v]
                break
            row = basis[c]
            g, s, t = _xgcd(row[c], v[c])
            a, b = row[c] // g, v[c] // g
            basis[c] = [s * x + t * y for x, y in zip(row, v)]
            v = [a * y - b * x for x, y in zip(row, v)]
        pivots = sorted(basis)
        for i, c in enumerate(pivots):
            for d in pivots[:i]:
                q = basis[d][c] // basis[c][c]
                if q:
                    basis[d] = [x - q * y for x, y in zip(basis[d], basis[c])]
    pivots = sorted(basis)
    return tuple(tuple(basis[c]) for c in pivots), tuple(pivots)


def _clear_denominators(vectors):
    """(den, [den * v]) for the least den > 0 making every den * v integral;
    an entry that is neither int nor Fraction is read as Fraction(c)."""
    vectors = [[c if isinstance(c, (int, Fraction)) else Fraction(c)
                for c in v] for v in vectors]
    den = lcm(1, *(c.denominator for v in vectors for c in v))
    return den, [[c.numerator * (den // c.denominator) for c in v]
                 for v in vectors]


def _vector(row, den) -> RationalVector:
    return RationalVector(Fraction(a, den) for a in row)


class LexGroup:
    """Finitely generated subgroup G of Q^r with the lex order on Q^r.

    `rank` is the ambient dimension r.  `den` is the least positive integer
    with den * G in Z^r, and `rows` is the row Hermite normal form of den * G
    (pivot columns `pivots`); both are canonical, so equal groups are equal.
    """

    def __init__(self, rank, generators=()):
        self.rank = int(rank)
        self.den, int_rows = _clear_denominators(generators)
        for g in int_rows:
            if len(g) != self.rank:
                raise ValueError(f"generator {_vector(g, self.den)} has "
                                 f"length {len(g)}, expected {self.rank}")
        self.rows, self.pivots = _hnf(int_rows, self.rank)

    @classmethod
    def _canonical(cls, rank: int, den: int, rows: tuple, pivots: tuple):
        """The group whose canonical form is (den, rows, pivots), taken as
        given: no generator is read and no HNF is computed."""
        group = object.__new__(cls)
        group.rank, group.den, group.rows, group.pivots = rank, den, rows, pivots
        return group

    @property
    def basis(self) -> tuple:
        """The rows scaled back into Q^r: a basis of G as RationalVectors."""
        return tuple(_vector(row, self.den) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, LexGroup) and self.rank == other.rank
                and self.den == other.den and self.rows == other.rows)

    def __hash__(self):
        return hash((self.rank, self.den, self.rows))

    def __repr__(self):
        gens = ", ".join(repr(b) for b in self.basis)
        return f"LexGroup({self.rank}, [{gens}])"

    def is_zero(self):
        return not self.rows

    def _coefficients(self, nums, den):
        """Integer coefficients of the vector nums / den over the basis, or
        None; rows and vector meet at the common scale den * self.den."""
        rem = [n * self.den for n in nums]
        coeffs = []
        for row, c in zip(self.rows, self.pivots):
            q, r = divmod(rem[c], row[c] * den)
            if r:
                return None
            coeffs.append(q)
            if q:
                for j in range(c, self.rank):
                    rem[j] -= q * den * row[j]
        return None if any(rem) else coeffs

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
    triangular and the index is the product of the pivot ratios
    (h_c / den_h) / (g_c / den_g).
    """
    if group.rank != subgroup.rank:
        raise ValueError("ambient rank mismatch")
    for h in subgroup.rows:
        if group._coefficients(h, subgroup.den) is None:
            raise ValueError(f"{_vector(h, subgroup.den)} is not an element "
                             "of the larger group")
    if len(subgroup.rows) < len(group.rows):
        return inf
    num = den = 1
    for h, g, c in zip(subgroup.rows, group.rows, group.pivots):
        num *= h[c] * group.den
        den *= g[c] * subgroup.den
    return num // den


def initial_index(group: LexGroup, subgroup: LexGroup) -> int:
    """Number of elements of the big group in the lex interval
    [0, smallest positive part of the small group)."""
    if subgroup_index(group, subgroup) is inf:
        raise ValueError("initial segment is infinite for infinite index")
    return _initial_index(group, subgroup)


def _initial_index(group: LexGroup, subgroup: LexGroup) -> int:
    """`initial_index` of a pair already known to have finite index.

    An element of the big group below every positive element of the small
    group lies on the ray of the big group's last basis row, so eps is the
    ratio of the two groups' last rows.
    """
    if group.is_zero():
        return 1
    c = group.pivots[-1]
    return (subgroup.rows[-1][c] * group.den
            // (group.rows[-1][c] * subgroup.den))


def initial_set(group: LexGroup, subgroup: LexGroup) -> list:
    """All x in the big group with 0 <=lex x <lex every positive element
    of the small group.  Requires finite index; sorted lex ascending."""
    eps = initial_index(group, subgroup)
    if group.is_zero():
        return [RationalVector([0] * group.rank)]
    return [k * group.basis[-1] for k in range(eps)]
