"""Lex-ordered subgroups of Q^r: canonical form, index, initial segments."""

import random
from fractions import Fraction
from math import inf

import pytest

from valknaf.ordgroup import (LexGroup, RationalVector, _hnf, initial_index,
                              initial_set, lex_compare, subgroup_index)

from oracles import (coset_count_box, initial_index_box, initial_set_box,
                     ref_hnf)

F = Fraction


def test_lex_compare():
    assert lex_compare((0, 0), (0, 0)) == 0
    assert lex_compare((0, 1), (1, -5)) == -1
    assert lex_compare((1, -5), (0, 100)) == 1
    assert lex_compare((F(1, 2), 0), (F(1, 3), 9)) == 1
    with pytest.raises(ValueError):
        lex_compare((1,), (1, 2))


def test_vector_arithmetic():
    v = RationalVector((F(1, 2), 3))
    w = RationalVector((F(1, 2), -1))
    assert v + w == RationalVector((1, 2))
    assert v - w == RationalVector((0, 4))
    assert 2 * v == RationalVector((1, 6))
    assert (-v).is_zero() is False
    assert (v - v).is_zero()
    # an int or a Fraction entry is kept, not copied; other entries are
    # read as Fraction
    half, big = F(1, 2), 10 ** 30
    kept = RationalVector((half, big, "1/3", True))
    assert kept[0] is half and kept[1] is big
    assert [type(c) for c in kept] == [Fraction, int, Fraction, Fraction]
    assert kept == RationalVector((half, F(big), F(1, 3), 1))
    assert hash(kept) == hash(RationalVector((half, F(big), F(1, 3), 1)))


def test_canonical_basis_independent_of_generators():
    a = LexGroup(2, [(F(1, 2), 0), (0, F(1, 3))])
    b = LexGroup(2, [(F(1, 2), F(2, 3)), (F(1, 2), F(1, 3)), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    # redundant generators collapse
    c = LexGroup(2, [(1, 0), (2, 0), (3, 0), (0, 1)])
    assert c == LexGroup(2, [(1, 0), (0, 1)])


def test_contains():
    g = LexGroup(2, [(F(1, 2), 0), (0, F(1, 3))])
    assert g.contains((F(3, 2), F(2, 3)))
    assert not g.contains((F(1, 3), 0))
    assert (0, 0) in g
    zero = LexGroup(2, [])
    assert zero.contains((0, 0))
    assert not zero.contains((1, 0))


def test_subgroup_index_spec_pair():
    big = LexGroup(2, [(F(1, 2), 0), (0, F(1, 3))])
    small = LexGroup(2, [(1, 0), (0, 1)])
    assert subgroup_index(big, small) == 6
    assert subgroup_index(big, big) == 1


def test_subgroup_index_infinite_and_errors():
    big = LexGroup(2, [(1, 0), (0, 1)])
    line = LexGroup(2, [(1, 0)])
    assert subgroup_index(big, line) is inf
    with pytest.raises(ValueError):
        subgroup_index(line, big)  # not contained
    with pytest.raises(ValueError):
        subgroup_index(big, LexGroup(2, [(F(1, 2), 0)]))


def test_initial_segment_rank_one():
    big = LexGroup(1, [(F(1, 2),)])
    small = LexGroup(1, [(1,)])
    assert initial_index(big, small) == 2
    assert initial_set(big, small) == [RationalVector((0,)),
                                       RationalVector((F(1, 2),))]


def test_initial_segment_depends_on_coordinate():
    znu = LexGroup(2, [(1, 0), (0, 1)])
    # refining the first coordinate does not add initial elements
    first = LexGroup(2, [(F(1, 2), 0), (0, 1)])
    assert initial_index(first, znu) == 1
    assert initial_set(first, znu) == [RationalVector((0, 0))]
    # refining the last coordinate does
    last = LexGroup(2, [(1, 0), (0, F(1, 2))])
    assert initial_index(last, znu) == 2
    assert initial_set(last, znu) == [RationalVector((0, 0)),
                                      RationalVector((0, F(1, 2)))]


def test_initial_segment_mixed():
    big = LexGroup(2, [(F(1, 2), 0), (0, F(1, 3))])
    small = LexGroup(2, [(1, 0), (0, 1)])
    assert subgroup_index(big, small) == 6
    assert initial_index(big, small) == 3


def test_initial_index_requires_finite_index():
    big = LexGroup(2, [(1, 0), (0, 1)])
    line = LexGroup(2, [(1, 0)])
    with pytest.raises(ValueError, match="infinite index"):
        initial_index(big, line)
    # not a subgroup: the check raises before any closed form is read
    with pytest.raises(ValueError, match="not an element"):
        initial_index(line, big)
    with pytest.raises(ValueError, match="not an element"):
        initial_index(LexGroup(1, [(1,)]), LexGroup(1, [(F(1, 2),)]))


def test_zero_groups():
    z = LexGroup(2, [])
    assert subgroup_index(z, z) == 1
    assert initial_index(z, z) == 1
    assert initial_set(z, z) == [RationalVector((0, 0))]


def test_lexgroup_rank_error_branches():
    with pytest.raises(ValueError) as exc:
        LexGroup(2, [(1,)])
    assert str(exc.value) == "generator (1) has length 1, expected 2"
    with pytest.raises(ValueError) as exc:
        LexGroup(2, [(1, 0)]).solve((1, 0, 0))
    assert str(exc.value) == "ambient rank mismatch"


def test_scale():
    g = LexGroup(2, [(F(1, 2), 0), (0, F(1, 3))])
    h = g.scale(F(7, 2))
    assert h.contains((F(7, 4), 0))
    assert g.scale(2).scale(F(1, 2)) == g
    with pytest.raises(ValueError):
        g.scale(0)
    with pytest.raises(ValueError):
        g.scale(-1)


def _random_group(rng, ambient, rank, max_den=4):
    gens = []
    for _ in range(rank):
        gens.append(tuple(
            F(rng.randint(-3, 3), rng.randint(1, max_den))
            for _ in range(ambient)))
    return LexGroup(ambient, gens)


def _random_finite_subgroup(rng, group, max_index=12):
    k = len(group.basis)
    for _ in range(200):
        rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        gens = []
        for row in rows:
            v = RationalVector([0] * group.rank)
            for c, b in zip(row, group.basis):
                v = v + c * b
            gens.append(v)
        sub = LexGroup(group.rank, gens)
        if len(sub.basis) != k:
            continue
        n = subgroup_index(group, sub)
        if n is not inf and n <= max_index:
            return sub
    return None


def test_random_pairs_against_box_oracle():
    def check(big, small, c):
        e = subgroup_index(big, small)
        eps = initial_index(big, small)
        wit = initial_set(big, small)
        assert eps == len(wit)
        assert 1 <= eps <= e
        gens_big = [tuple(b) for b in big.basis]
        gens_small = [tuple(b) for b in small.basis]
        ambient = big.rank
        assert eps == initial_index_box(gens_big, gens_small, ambient)
        assert [tuple(w) for w in wit] == initial_set_box(
            gens_big, gens_small, ambient)
        assert e == coset_count_box(gens_big, gens_small, ambient)
        # scaling preserves the whole picture
        assert subgroup_index(big.scale(c), small.scale(c)) == e
        assert initial_index(big.scale(c), small.scale(c)) == eps
        return e, eps

    # pivots off column 0
    assert check(LexGroup(3, [(0, F(1, 2), 0)]), LexGroup(3, [(0, 1, 0)]),
                 F(7, 2)) == (2, 2)
    # rank 2 in Q^3 with eps < e
    assert check(LexGroup(3, [(1, 0, F(1, 3)), (0, 0, F(1, 2))]),
                 LexGroup(3, [(2, 0, F(2, 3)), (0, 0, 1)]), F(1, 3)) == (4, 2)

    rng = random.Random(20240817)
    checked = 0
    while checked < 60:
        ambient = rng.randint(1, 3)
        rank = rng.randint(1, ambient)
        big = _random_group(rng, ambient, rank)
        if len(big.basis) != rank:
            continue
        small = _random_finite_subgroup(rng, big)
        if small is None:
            continue
        check(big, small, rng.choice([F(1, 3), F(2), F(7, 2)]))
        checked += 1
    assert checked == 60


def _random_unimodular(rng, k, steps=12):
    """A k x k integer matrix of determinant +-1, built by row operations."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i = rng.randrange(k)
        j = rng.randrange(k)
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = rng.randint(-3, 3)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def test_equal_groups_from_different_denominators():
    a = LexGroup(1, [(F(1, 2),), (F(1, 3),)])
    b = LexGroup(1, [(F(1, 6),)])
    assert a == b and hash(a) == hash(b)
    assert a != LexGroup(1, [(F(1, 3),)])
    rng = random.Random(15)
    for ambient in range(1, 5):
        for _ in range(25):
            k = rng.randint(1, ambient + 1)
            gens = [[F(rng.randint(-6, 6), rng.randint(1, 6))
                     for _ in range(ambient)] for _ in range(k)]
            u = _random_unimodular(rng, k)
            moved = [[sum(u[i][m] * gens[m][j] for m in range(k))
                      for j in range(ambient)] for i in range(k)]
            g, h = LexGroup(ambient, gens), LexGroup(ambient, moved)
            assert g == h and hash(g) == hash(h), (gens, moved)
            assert g.scale(2) != g or g.is_zero()


@pytest.mark.parametrize("rank,gens,basis", [
    (3, [(1, 0, F(1, 3)), (0, 0, F(1, 2))], "((1, 0, 1/3), (0, 0, 1/2))"),
    (3, [(F(1, 4), F(1, 6), F(-1, 3)), (F(2, 5), 0, 1), (0, F(3, 7), F(1, 2))],
     "((1/20, 1/42, 409/6), (0, 1/21, 443/6), (0, 0, 83))"),
    (4, [(F(1, 2), F(1, 3), 0, F(1, 5)), (0, F(2, 3), F(1, 7), 0),
         (0, 0, F(3, 4), F(1, 6)), (F(1, 2), 0, 0, F(5, 6))],
     "((1/2, 0, 0, 5/6), (0, 1/3, 0, 253/10), (0, 0, 1/28, 593/30), "
     "(0, 0, 0, 389/15))"),
    (2, [], "()"),
])
def test_basis_is_rational_hnf(rank, gens, basis):
    g = LexGroup(rank, gens)
    assert str(g.basis) == basis
    assert all(isinstance(b, RationalVector) for b in g.basis)
    assert all(type(c) is Fraction for b in g.basis for c in b)
    assert LexGroup(rank, g.basis) == g
    assert all(g.solve(x) is not None for x in gens)


def test_generators_read_as_fractions():
    half = LexGroup(1, [(F(1, 2),)])
    assert LexGroup(1, [("1/2",)]) == half
    assert LexGroup(1, [(0.5,)]) == half
    assert half.contains(("3/2",)) and not half.contains((0.25,))


def _random_rows(rng, ncols):
    """0-9 integer rows of length ncols, mixing sparse, zero, duplicate and
    dependent rows, so sets of fewer rows than columns, rank-deficient sets
    and more rows than the rank all occur."""
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([c * x + d * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-9, 9) if rng.random() < 0.7 else 0
                         for _ in range(ncols)])
    return rows


def test_hnf_matches_reference():
    # one insertion at a time into the reduced form against the two-phase
    # elimination it replaced: the HNF is canonical, so rows and pivots agree
    assert _hnf([], 3) == ref_hnf([], 3) == ((), ())
    assert _hnf([[0, 0], [0, 0]], 2) == ((), ())
    assert _hnf([(0, -4, 6), (0, 2, 1), (0, -4, 6)], 3) == (
        ((0, 2, 1), (0, 0, 8)), (1, 2))
    rng = random.Random(37)
    for ncols in range(1, 15):
        for _ in range(400 if ncols <= 6 else 40):
            rows = _random_rows(rng, ncols)
            assert _hnf(rows, ncols) == ref_hnf(rows, ncols), rows
    # dense rational generators cleared to one denominator, as LexGroup does
    for ncols in range(8, 15):
        nrows = ncols + rng.randint(-2, 2)
        gens = [[F(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(ncols)] for _ in range(nrows)]
        rows = [[int(c * 2520) for c in g] for g in gens]
        assert _hnf(rows, ncols) == ref_hnf(rows, ncols)


def test_hnf_canonical_at_rank_64():
    # the lattice of A, of U A for a unimodular U, and of U A with
    # multiples of A's rows appended, has one set of rows and pivots
    rng = random.Random(64)
    a = [[rng.randint(-9, 9) for _ in range(64)] for _ in range(64)]
    u = _random_unimodular(rng, 64, steps=200)
    moved = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
             for row in u]
    expected = _hnf(a, 64)
    assert expected[1] == tuple(range(64))
    assert _hnf(moved, 64) == expected
    assert _hnf(moved + [[2 * x for x in r] for r in a[:5]], 64) == expected


def _det(a):
    """det of a square matrix by Gaussian elimination over Fractions."""
    m = [[F(x) for x in row] for row in a]
    det = F(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_hnf_pivots_multiply_to_determinant(n):
    rng = random.Random(n)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    det = _det(a)
    assert det
    rows, pivots = _hnf(a, n)
    assert pivots == tuple(range(n))
    prod = 1
    for row, c in zip(rows, pivots):
        prod *= row[c]
    assert prod == abs(det)
