"""Lex-ordered subgroups of Q^r: canonical form, index, initial segments."""

import random
from fractions import Fraction
from math import inf

import pytest

from valknaf.ordgroup import (LexGroup, RationalVector, initial_index,
                              initial_set, lex_compare, subgroup_index)

from oracles import coset_count_box, initial_index_box, initial_set_box

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
    # a Fraction entry is kept, not copied; other entries are read as Fraction
    half = F(1, 2)
    kept = RationalVector((half, 3, "1/3"))
    assert kept[0] is half
    assert all(type(c) is Fraction for c in kept)


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
    with pytest.raises(ValueError):
        initial_index(big, line)


def test_zero_groups():
    z = LexGroup(2, [])
    assert subgroup_index(z, z) == 1
    assert initial_index(z, z) == 1
    assert initial_set(z, z) == [RationalVector((0, 0))]


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
