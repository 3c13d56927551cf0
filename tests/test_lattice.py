import random

import pytest

from latticebox.errors import DimensionError, MembershipError, TorsionError
from latticebox.lattice import (
    Lattice,
    integer_kernel,
    smith_decompose,
    smith_transforms,
    solve_integer_system,
    unimodular_completion,
)


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


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
    lat = Lattice(2, [(2, 4), (0, 8)])
    assert lat.solve_integral((2, -4)) == (1, -1)
    assert lat.solve_integral((0, 0)) == (0, 0)
    assert lat.solve_integral((1, 1)) is None


def test_member_iff_solve_property():
    rng = random.Random(17)
    for _ in range(300):
        lat = rand_lattice(rng)
        w = [rng.randint(-10, 10) for _ in range(lat.ambient_dim)]
        coeffs = lat.solve_integral(w)
        assert (coeffs is not None) == lat.member(w)
        if coeffs is not None:
            rebuilt = [
                sum(coeffs[k] * lat.basis[k][j] for k in range(lat.rank))
                for j in range(lat.ambient_dim)
            ]
            assert rebuilt == list(w)


def _check_complement(lat, v):
    comp = lat.complement_of(v)
    assert comp.rank == lat.rank - 1
    assert all(lat.member(row) for row in comp.basis)
    # direct sum: v together with the complement spans the lattice, and
    # the only multiple of v inside the complement is zero.
    joined = Lattice(lat.ambient_dim, list(comp.basis) + [v])
    assert joined == lat
    for t in range(-3, 4):
        scaled = [t * x for x in v]
        assert comp.member(scaled) == (t == 0)


def test_complement_examples():
    lat = Lattice(2, [(2, 4), (0, 8)])
    _check_complement(lat, (2, 4))
    single = Lattice(2, [(3, 5)])
    assert single.complement_of((3, 5)).rank == 0
    _check_complement(Lattice(2, [(1, 0), (0, 1)]), (1, 0))


def test_complement_errors():
    lat = Lattice(2, [(2, 4), (0, 8)])
    with pytest.raises(MembershipError):
        lat.complement_of((1, 1))
    with pytest.raises(TorsionError):
        lat.complement_of((4, 8))
    with pytest.raises(ValueError):
        lat.complement_of((0, 0))


def test_complement_random_property():
    rng = random.Random(23)
    done = 0
    while done < 120:
        lat = rand_lattice(rng)
        if lat.rank == 0:
            continue
        coeffs = [rng.randint(-2, 2) for _ in range(lat.rank)]
        from math import gcd

        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g != 1:
            continue
        v = [
            sum(coeffs[k] * lat.basis[k][j] for k in range(lat.rank))
            for j in range(lat.ambient_dim)
        ]
        if not any(v):
            continue
        _check_complement(lat, v)
        done += 1


def test_smith_examples():
    u, d, w = smith_decompose([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    assert mat_mul(mat_mul(u, d), w) == [[2, 0], [0, 3]]
    u, d, w = smith_decompose([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    u, d, w = smith_decompose([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


def test_smith_random_reconstruction():
    rng = random.Random(31)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        p, p_inv, d, q, q_inv = smith_transforms(m)
        ident_r = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
        ident_c = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        assert mat_mul(p, p_inv) == ident_r
        assert mat_mul(q, q_inv) == ident_c
        assert mat_mul(mat_mul(p, m), q) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
                else:
                    assert d[i][j] >= 0


def test_solve_integer_system():
    # 2x + 3y = 1 has integer solutions.
    sol = solve_integer_system([[2, 3]], [1])
    assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1
    assert solve_integer_system([[2]], [1]) is None
    assert solve_integer_system([[2]], [4]) == [2]
    rng = random.Random(37)
    for _ in range(150):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-5, 5) for _ in range(cols)]
        rhs = [sum(m[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve_integer_system(m, rhs)
        assert sol is not None
        assert [
            sum(m[i][j] * sol[j] for j in range(cols)) for i in range(rows)
        ] == rhs


def test_integer_kernel():
    kern = integer_kernel([[2, 3]])
    assert len(kern) == 1
    v = kern[0]
    assert 2 * v[0] + 3 * v[1] == 0
    from math import gcd

    assert abs(gcd(v[0], v[1])) == 1
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_unimodular_completion():
    rng = random.Random(41)
    from math import gcd

    done = 0
    while done < 100:
        k = rng.randint(1, 4)
        c = [rng.randint(-6, 6) for _ in range(k)]
        g = 0
        for x in c:
            g = gcd(g, x)
        if g != 1:
            continue
        u = unimodular_completion(c)
        assert u[0] == c
        # unimodular: an exact integer inverse exists
        p, p_inv, d, q, q_inv = smith_transforms(u)
        assert all(d[i][i] == 1 for i in range(k))
        done += 1
