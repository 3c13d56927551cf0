import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from latticebox import chains, serialize
from latticebox.chains import (
    MAX_IMAGE_DIM,
    ChainCertificate,
    DivisorVector,
    certify,
    image_lattice,
    map_point,
)
from latticebox.errors import (
    DivisibilityError,
    ResourceLimitError,
    ZeroLatticeError,
)
from latticebox.lattice import Lattice
from rref_oracle import rref

CORPUS = Path(__file__).parent / "corpus"


def divisor_candidates(lat):
    """The divisor vectors of lat, in the walk's order."""
    return map(DivisorVector.of, chains._walk(lat))


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


def test_chains_refuse_non_integers():
    # int() would truncate: (1.5, 0) was the divisor (1, 0), and (0.7, 2.9)
    # mapped to (-2,) under (1, 1)
    for v in ((1.5, 0), ("1", 0), (Fraction(1), 0)):
        with pytest.raises(TypeError):
            DivisorVector.of(v)
    dv = DivisorVector.of((1, 1))
    for t in ((0.7, 2.9), ("0", "2"), (Fraction(0), 2)):
        with pytest.raises(TypeError):
            map_point(dv, t)


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
    monkeypatch.setattr("latticebox.chains.MAX_IMAGE_DIM", 3)
    with pytest.raises(ResourceLimitError):
        certify(lat)

    # The cap is read from the divisor, before any image is built, and a
    # rank-1 level needs no image at all.
    def no_image(lat, div):
        raise AssertionError("image_lattice called")

    monkeypatch.setattr("latticebox.chains.image_lattice", no_image)
    identity = Lattice(6, [[int(i == j) for j in range(6)] for i in range(6)])
    monkeypatch.setattr("latticebox.chains.MAX_IMAGE_DIM", 10)
    with pytest.raises(ResourceLimitError, match="image dimension 15 exceeds cap 10"):
        certify(identity)
    monkeypatch.setattr("latticebox.chains.MAX_IMAGE_DIM", 1)
    assert certify(Lattice(3, [(2, -3, 0)])).chain_length == 1


def test_cap_refusal_builds_no_pair_layout(monkeypatch):
    # (1, ..., 1, 0) and (0, ..., 0, 1) in Z^3000: the first candidate is
    # all ones, whose pair layout alone would hold C(3000, 2) tuples
    n = 3000
    lat = Lattice(n, [[1] * (n - 1) + [0], [0] * (n - 1) + [1]])
    build = DivisorVector.pairs.func

    def small_only(div):
        if len(div.pos) + len(div.neg) > 12:
            raise AssertionError("built the pair layout of an over-cap divisor")
        return build(div)

    monkeypatch.setattr(DivisorVector, "pairs", property(small_only))
    dim = n * (n - 1) // 2
    with pytest.raises(ResourceLimitError, match=f"image dimension {dim} exceeds cap"):
        certify(lat)


def test_rank1_chain_builds_no_pair_layout():
    # one generator of 3000 ones: a rank-1 level needs only v, not the
    # C(3000, 2) = 4,498,500 pairs of its layout
    chain = certify(Lattice(3000, [[1] * 3000]))
    assert chain.child is None
    assert "pairs" not in vars(chain.divisor)
    assert len(serialize.dumps(serialize.chain_to_json(chain))) < 40_000


def test_image_dim_needs_no_pair_layout():
    # image_dim is the length of the reduced layout, read without building it
    rng = random.Random(2803)
    seen = 0
    for _ in range(300):
        for div in divisor_candidates(rand_lattice(rng)):
            assert div.image_dim == len(div.pairs) + len(div.zero)
            seen += 1
    assert seen > 300
    div = DivisorVector.of([1] * 3000)
    assert div.image_dim == 4_498_500
    assert "pairs" not in vars(div)


def check_chain_json(n, gens, level):
    """Check a chain JSON from v alone, by the layout rule of the README.

    At each level v must be a member of the current lattice whose nonzero
    coordinates divide the matching coordinate of every current generator.
    Each generator g then maps to g_i/v_i - g_j/v_j over the pairs i < j
    of v's nonzero coordinates, in lexicographic order, followed by g_k on
    v's zero coordinates, ascending. The images vanish exactly at the last
    level, and there is one level per unit of rank.
    """
    rank = len(rref([[Fraction(x) for x in g] for g in gens], n)[1])
    levels = 0
    while level is not None:
        v = [int(x) for x in level["v"]]
        assert len(v) == n and Lattice(n, gens).member(v)
        support = [i for i in range(n) if v[i]]
        assert all(g[i] % v[i] == 0 for g in gens for i in support)
        gens = [
            [g[i] // v[i] - g[j] // v[j] for i, j in combinations(support, 2)]
            + [g[k] for k in range(n) if not v[k]]
            for g in gens
        ]
        n = len(gens[0])
        level = level["child"]
        assert (level is None) == (not any(map(any, gens)))
        levels += 1
    assert levels == rank


def test_chain_json_rebuilds_from_divisors():
    in_class = 0
    for case in json.loads((CORPUS / "manifest.json").read_text()):
        if case["argv"][0] != "certify":
            continue
        out = json.loads((CORPUS / "expected" / f"{case['name']}.json").read_text())
        if not out["in_class"]:
            continue
        lat = json.loads(Path(CORPUS.parent.parent, case["argv"][1]).read_text())
        gens = [[int(x) for x in g] for g in lat["generators"]]
        check_chain_json(lat["ambient_dim"], gens, out["certificate"])
        in_class += 1
    assert in_class == 2

    rng = random.Random(20261020)
    mixed = 0
    for _ in range(300):
        lat = rand_lattice(rng, n_max=5, entry=3)
        if lat.rank == 0:
            continue
        try:
            chain = certify(lat)
        except ResourceLimitError:
            continue
        if chain is None:
            continue
        check_chain_json(lat.ambient_dim, lat.basis, serialize.chain_to_json(chain))
        # a level with both pairs and zero coordinates pins their order
        while chain.child is not None:
            s = sum(map(bool, chain.divisor.v))
            mixed += 2 <= s < len(chain.divisor.v)
            chain = chain.child
    assert mixed >= 10


def certify_unmemoized(lat, max_dim=MAX_IMAGE_DIM, visited=None):
    """Reference: the chain search without certify's memo of failed images.

    visited, when given, collects every lattice whose candidates are walked.
    """
    if visited is not None:
        visited.append(lat)
    for div in divisor_candidates(lat):
        if lat.rank == 1:
            return ChainCertificate(lat, div, None)
        dim = len(div.pairs) + len(div.zero)
        if dim > max_dim:
            raise ResourceLimitError(f"image dimension {dim} exceeds cap {max_dim}")
        sub = certify_unmemoized(image_lattice(lat, div), max_dim, visited)
        if sub is not None:
            return ChainCertificate(lat, div, sub)
    return None


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except ResourceLimitError as exc:
        return str(exc)


def test_certify_matches_unmemoized_search(monkeypatch):
    rng = random.Random(20261019)
    kinds = set()
    revisits = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        lat = Lattice(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if lat.rank == 0:
            continue
        max_dim = rng.choice([3, 6, MAX_IMAGE_DIM])
        monkeypatch.setattr("latticebox.chains.MAX_IMAGE_DIM", max_dim)
        visited = []
        expected = _outcome(certify_unmemoized, lat, max_dim, visited=visited)
        assert _outcome(certify, lat) == expected
        kinds.add(type(expected))
        revisits += len(visited) > len(set(visited))
    # chains, no chain and the cap all occur, and some searches meet an
    # image lattice twice, which is where the memo acts
    assert kinds == {ChainCertificate, type(None), str}
    assert revisits > 0


def test_certify_searches_no_image_twice(monkeypatch):
    # a one-block lattice with no chain: without the memo, the search
    # walks the candidates of its 143 image lattices 1,369 times
    lat = Lattice(5, [
        [1, 0, 0, 0, 4],
        [0, 1, 0, 0, 3],
        [0, 0, 1, 0, 3],
        [0, 0, 0, 1, 3],
        [0, 0, 0, 0, 5],
    ])
    visited = []
    assert certify_unmemoized(lat, visited=visited) is None
    assert (len(visited), len(set(visited))) == (1369, 143)

    searched = []
    walk = chains._walk

    def counting(lat):
        searched.append(lat)
        return walk(lat)

    monkeypatch.setattr("latticebox.chains._walk", counting)
    assert certify(lat) is None
    assert sorted(map(repr, searched)) == sorted(map(repr, set(visited)))


def test_certify_no_chain_when_a_block_has_no_divisor(monkeypatch):
    # Z^k + <(1, 2), (0, 5)>: every divisor is zero on the second block,
    # which has none of its own, so no chain exists and no image is built
    def no_image(lat, div):
        raise AssertionError("image_lattice called")

    monkeypatch.setattr("latticebox.chains.image_lattice", no_image)
    for k in range(1, 14):
        gens = [[int(i == j) for j in range(k + 2)] for i in range(k)]
        lat = Lattice(k + 2, gens + [[0] * k + [1, 2], [0] * (k + 1) + [5]])
        assert certify(lat) is None


def test_search_skips_the_subtree_of_an_image_with_a_dead_block(monkeypatch):
    # both blocks of lat have a divisor, so the rule first acts inside the
    # search: the third candidate (1, 1, -1, 0) maps lat onto dead, whose
    # block on the first three coordinates has none. The search never maps
    # dead's candidates (0, 0, 0, +-2), and still finds the chain of the
    # fourth candidate
    lat = Lattice(4, [(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 3, 0), (0, 0, 0, 2)])
    dead = Lattice(4, [(1, 2, 1, 0), (0, 3, 3, 0), (0, 0, 0, 2)])
    assert chains._blocks(lat) == [[0, 1, 2], [3]]
    assert chains._blocks(dead) == [[0, 1, 2], [3]]
    assert list(chains._walk(Lattice(3, [(1, 2, 1), (0, 3, 3)]))) == []
    assert list(chains._walk(dead)) == [[0, 0, 0, 2], [0, 0, 0, -2]]
    first = [list(v) for v in chains._walk(lat)][:4]
    assert first[2] == [1, 1, -1, 0]
    assert image_lattice(lat, DivisorVector.of(first[2])) == dead

    mapped = []

    def recording(lat, div):
        mapped.append(lat)
        return image_lattice(lat, div)

    monkeypatch.setattr("latticebox.chains.image_lattice", recording)
    chain = certify(lat)
    assert chain.divisor.v == tuple(first[3])
    assert dead not in mapped
    assert len(mapped) == 8  # walking dead would map its two candidates too


@pytest.mark.parametrize(
    "lat, tested",
    [
        (Lattice(4, [[2, 0, 0, 2], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 5]]), 17),
        (
            Lattice(5, [
                [1, 0, 0, 0, 10],
                [0, 1, 0, 0, 6],
                [0, 0, 1, 0, 10],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 14],
            ]),
            89,
        ),
    ],
)
def test_search_tests_each_lattice_for_a_dead_block_once(monkeypatch, lat, tested):
    # both searches meet some image twice: an image the rule answers joins
    # the failed ones, so the second visit ends at the memo
    seen = []
    dead_block = chains._dead_block

    def counting(lat):
        seen.append(lat)
        return dead_block(lat)

    monkeypatch.setattr("latticebox.chains._dead_block", counting)
    assert certify(lat) is None
    assert len(seen) == len(set(seen)) == tested


def test_sign_partition():
    dv = DivisorVector.of((2, -3, 0))
    assert dv.pos == (0,) and dv.neg == (1,) and dv.zero == (2,)
    assert dv.pairs == ((0, 1),)


def test_divisor_vector_must_be_nonzero():
    with pytest.raises(ValueError, match="must be nonzero"):
        DivisorVector.of((0, 0))
