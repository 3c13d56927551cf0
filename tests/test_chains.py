import random
from itertools import product

import pytest

from latticebox.chains import (
    DivisorVector,
    certify,
    divisor_candidates,
    image_lattice,
    map_point,
)
from latticebox.errors import (
    DivisibilityError,
    ResourceLimitError,
    ZeroLatticeError,
)
from latticebox.lattice import Lattice


def rand_lattice(rng, n_max=4, entry=6):
    n = rng.randint(1, n_max)
    k = rng.randint(1, n)
    return Lattice(n, [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(k)])


def brute_divisors(lat):
    """Oracle: scan all members v with |v_i| <= d_i for the divisor property."""
    d = lat.projection_gcds()
    out = set()
    for point in product(*[range(-di, di + 1) for di in d]):
        if not any(point):
            continue
        if not lat.member(point):
            continue
        if all(
            point[i] == 0 or all(row[i] % point[i] == 0 for row in lat.basis)
            for i in range(lat.ambient_dim)
        ):
            out.add(tuple(point))
    return out


def test_divisor_candidates_examples():
    cands = {dv.v for dv in divisor_candidates(Lattice(2, [(2, 4), (0, 8)]))}
    assert (2, 4) in cands and (-2, -4) in cands
    assert (2, -4) in cands  # (2, -4) is a member, so its pattern qualifies

    cands = {dv.v for dv in divisor_candidates(Lattice(2, [(3, 0)]))}
    assert cands == {(3, 0), (-3, 0)}

    full = Lattice(2, [(1, 0), (0, 1)])
    cands = [dv.v for dv in divisor_candidates(full)]
    # all four sign patterns of (1, 1) plus the partial-support divisors,
    # ordered per coordinate + before - before 0
    assert cands == [
        (1, 1),
        (1, -1),
        (1, 0),
        (-1, 1),
        (-1, -1),
        (-1, 0),
        (0, 1),
        (0, -1),
    ]

    # candidates come lazily: the first of 3^12 - 1 sign patterns at once
    identity = Lattice(12, [[int(i == j) for j in range(12)] for i in range(12)])
    assert next(divisor_candidates(identity)).v == (1,) * 12


def test_divisor_candidates_zero_lattice():
    with pytest.raises(ZeroLatticeError):
        divisor_candidates(Lattice(2, [(0, 0)]))


def test_divisor_candidates_match_brute_force():
    rng = random.Random(59)
    checked = 0
    while checked < 150:
        lat = rand_lattice(rng, n_max=3, entry=4)
        if lat.rank == 0:
            continue
        d = lat.projection_gcds()
        if any(di > 8 for di in d):
            continue
        got = [dv.v for dv in divisor_candidates(lat)]
        # documented order: + before - before 0 on the nonzero-gcd coordinates
        nz = [i for i, di in enumerate(d) if di]
        order = {1: 0, -1: 1, 0: 2}

        def key(v):
            return tuple(order[(v[i] > 0) - (v[i] < 0)] for i in nz)

        assert got == sorted(brute_divisors(lat), key=key)
        checked += 1


def test_divisor_order_deterministic():
    lat = Lattice(2, [(2, 4), (0, 8)])
    order = [dv.v for dv in divisor_candidates(lat)]
    assert order == [(2, 4), (2, -4), (-2, 4), (-2, -4)]


def test_map_point_examples():
    lat = Lattice(2, [(2, 4), (0, 8)])
    dv = next(d for d in divisor_candidates(lat) if d.v == (2, 4))
    assert map_point(dv, (2, 4)) == (0,)
    assert map_point(dv, (0, 8)) == (-2,)

    dv = DivisorVector.of((1, 0, -1))
    assert dv.pairs == ((0, 2),)
    assert dv.zero == (1,)
    assert map_point(dv, (5, 7, -2)) == (3, 7)


def test_map_point_divisibility_error():
    dv = DivisorVector.of((2, 4))
    with pytest.raises(DivisibilityError):
        map_point(dv, (1, 4))


def test_map_point_linear_kernel_property():
    rng = random.Random(61)
    checked = 0
    while checked < 100:
        lat = rand_lattice(rng, n_max=3, entry=4)
        if lat.rank == 0:
            continue
        dv = next(divisor_candidates(lat), None)
        if dv is None:
            continue
        r = lat.rank
        c1 = [rng.randint(-3, 3) for _ in range(r)]
        c2 = [rng.randint(-3, 3) for _ in range(r)]

        def member_of(c):
            return [
                sum(c[k] * lat.basis[k][j] for k in range(r))
                for j in range(lat.ambient_dim)
            ]

        w1, w2 = member_of(c1), member_of(c2)
        both = [a + b for a, b in zip(w1, w2)]
        img = [a + b for a, b in zip(map_point(dv, w1), map_point(dv, w2))]
        assert list(map_point(dv, both)) == img
        # kernel inside the lattice is exactly the divisor line
        if not any(map_point(dv, w1)):
            lam = None
            for i in range(lat.ambient_dim):
                if dv.v[i] != 0:
                    lam = w1[i] // dv.v[i]
                    break
            assert w1 == [lam * x for x in dv.v]
        checked += 1


def test_image_lattice_examples():
    lat = Lattice(2, [(2, 4), (0, 8)])
    dv = next(d for d in divisor_candidates(lat) if d.v == (2, 4))
    assert image_lattice(lat, dv) == Lattice(1, [(2,)])

    single = Lattice(2, [(3, 5)])
    dv = next(divisor_candidates(single))
    assert image_lattice(single, dv).rank == 0

    full = Lattice(2, [(1, 0), (0, 1)])
    dv = next(d for d in divisor_candidates(full) if d.v == (1, 1))
    assert image_lattice(full, dv) == Lattice(1, [(1,)])


def test_image_rank_drop_property():
    rng = random.Random(67)
    checked = 0
    while checked < 150:
        lat = rand_lattice(rng, n_max=3, entry=4)
        if lat.rank == 0:
            continue
        for dv in divisor_candidates(lat):
            assert image_lattice(lat, dv).rank == lat.rank - 1
        checked += 1


def test_certify_examples():
    chain = certify(Lattice(3, [(2, -3, 0)]))
    assert chain is not None
    assert chain.divisor.v == (2, -3, 0)
    assert chain.child is None
    assert chain.chain_length == 1

    chain = certify(Lattice(2, [(2, 4), (0, 8)]))
    assert chain is not None
    assert chain.chain_length == 2
    assert chain.divisor.v == (2, 4)
    assert chain.child.divisor.v == (2,)
    assert chain.child.child is None

    assert certify(Lattice(2, [(1, 2), (0, 5)])) is None


def test_certify_zero_lattice():
    with pytest.raises(ZeroLatticeError):
        certify(Lattice(1, [(0,)]))


def test_certify_rank1_always_succeeds():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(1, 4)
        v = [rng.randint(-6, 6) for _ in range(n)]
        if not any(v):
            continue
        chain = certify(Lattice(n, [v]))
        assert chain is not None and chain.chain_length == 1


def test_certify_chain_length_equals_rank():
    rng = random.Random(73)
    certified = 0
    while certified < 80:
        lat = rand_lattice(rng)
        if lat.rank == 0:
            continue
        try:
            chain = certify(lat)
        except ResourceLimitError:
            continue
        if chain is None:
            continue
        assert chain.chain_length == lat.rank
        certified += 1


def test_certify_dimension_cap(monkeypatch):
    # A wide rank-2 lattice with a dense divisor blows past a tiny cap.
    lat = Lattice(4, [(1, 1, 1, 1), (0, 2, 4, 8)])
    with pytest.raises(ResourceLimitError):
        certify(lat, max_dim=3)

    # The cap is read from the divisor, before any image is built, and a
    # rank-1 level needs no image at all.
    def no_image(lat, div):
        raise AssertionError("image_lattice called")

    monkeypatch.setattr("latticebox.chains.image_lattice", no_image)
    identity = Lattice(6, [[int(i == j) for j in range(6)] for i in range(6)])
    with pytest.raises(ResourceLimitError, match="image dimension 15 exceeds cap 10"):
        certify(identity, max_dim=10)
    assert certify(Lattice(3, [(2, -3, 0)]), max_dim=1).chain_length == 1


def test_sign_partition():
    dv = DivisorVector.of((2, -3, 0))
    assert dv.pos == (0,) and dv.neg == (1,) and dv.zero == (2,)
    assert dv.pairs == ((0, 1),)
