import random
from fractions import Fraction

import pytest

from latticebox.errors import DimensionError
from latticebox.lattice import Lattice
from rref_oracle import rref


def rand_lattice(rng, n_max=4, entry=6):
    n = rng.randint(1, n_max)
    k = rng.randint(1, n)
    gens = [
        [rng.randint(-entry, entry) for _ in range(n)] for _ in range(k)
    ]
    return Lattice(n, gens)


def test_from_generators_examples():
    lat = Lattice(2, [(2, 4), (0, 8)])
    assert lat.rank == 2
    assert lat.member((2, 4))
    assert Lattice(3, [(0, 0, 0)]).rank == 0
    assert Lattice(1, [(4,), (6,)]).basis == ((2,),)


def test_from_generators_dimension_check():
    with pytest.raises(DimensionError):
        Lattice(2, [(1, 2, 3)])


def test_refuses_non_integers():
    # int() would truncate 1.5 to 1 (making the lattice Z) and parse "3"
    for gens in ([(1.5,)], [("3",)], [(Fraction(2),)]):
        with pytest.raises(TypeError):
            Lattice(1, gens)
    with pytest.raises(TypeError):
        Lattice(1, [(1,)]).member((1.5,))


def test_canonical_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        lat = rand_lattice(rng)
        again = Lattice(lat.ambient_dim, lat.basis)
        assert again.basis == lat.basis
        assert again == lat


def test_canonical_equality_of_equal_spans():
    # Same subgroup through different generator sets.
    a = Lattice(2, [(2, 4), (0, 8)])
    b = Lattice(2, [(2, -4), (2, 12), (0, 8)])
    assert a == b
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        lat = rand_lattice(rng)
        if lat.rank == 0:
            continue
        rows = [list(r) for r in lat.basis]
        if lat.rank >= 2:
            rows[0] = [x + 3 * y for x, y in zip(rows[0], rows[1])]
        rows.append([-x for x in rows[0]])
        assert Lattice(lat.ambient_dim, rows) == lat
        checked += 1


def test_member_examples():
    lat = Lattice(2, [(2, 4), (0, 8)])
    assert lat.member((2, -4))
    assert not Lattice(2, [(2, 4)]).member((1, 2))
    assert lat.member((0, 0))


def test_projection_gcds_examples():
    assert Lattice(2, [(2, 4), (0, 8)]).projection_gcds() == (2, 4)
    assert Lattice(2, [(3, 0)]).projection_gcds() == (3, 0)
    assert Lattice(2, [(0, 0)]).projection_gcds() == (0, 0)


def test_solve_integral_examples():
    # the integral solutions that member decides: (2, -4) = 1*(2, 4) - 1*(0, 8)
    lat = Lattice(2, [(2, 4), (0, 8)])
    assert [1 * a - 1 * b for a, b in zip(*lat.basis)] == [2, -4]
    assert lat.member((2, -4))
    assert lat.member((0, 0))
    assert not lat.member((1, 1))


def test_member_iff_solve_property():
    rng = random.Random(17)
    for _ in range(300):
        lat = rand_lattice(rng)
        w = [rng.randint(-10, 10) for _ in range(lat.ambient_dim)]
        # independent route: the basis rows are independent, so the rational
        # coefficients of w are unique when they exist, and w is a member
        # iff they exist and are all integers
        k = lat.rank
        mat, pivots = rref(
            [[Fraction(row[j]) for row in lat.basis] + [Fraction(w[j])]
             for j in range(lat.ambient_dim)],
            k,
        )
        assert len(pivots) == k
        rational = all(row[k] == 0 for row in mat[k:])
        integral = rational and all(row[k].denominator == 1 for row in mat[:k])
        assert integral == lat.member(w)



def test_dimension_errors():
    with pytest.raises(DimensionError, match="must be nonnegative"):
        Lattice(-1)
    with pytest.raises(DimensionError, match="length 1, expected 2"):
        Lattice(2, [(1, 0)]).member((1,))
