import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from rref_oracle import rref

from latticebox import arith
from latticebox.arith import PrimeSet
from latticebox.circuits import (
    Circuit,
    circuits,
    first_circuit,
    prime_set,
    prime_set_of_circuits,
)
from latticebox.errors import DimensionError, ResourceLimitError


def brute_circuits(vectors):
    """Oracle: every subset of every size, via rational kernels."""
    vecs = [[Fraction(x) for x in v] for v in vectors]
    m = len(vecs)
    out = {}
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            kern = _kernel(vecs, subset)
            if kern is None or any(x == 0 for x in kern):
                continue
            mult = lcm(*(x.denominator for x in kern))
            ints = [int(x * mult) for x in kern]
            g = 0
            for x in ints:
                g = gcd(g, x)
            ints = [x // g for x in ints]
            if ints[0] < 0:
                ints = [-x for x in ints]
            out[subset] = tuple(ints)
    return out


def _columns(vecs, subset):
    n = len(vecs[0]) if vecs else 0
    return [[vecs[i][j] for i in subset] for j in range(n)]


def _kernel(vecs, subset):
    k = len(subset)
    mat, pivots = rref(_columns(vecs, subset), k)
    if k - len(pivots) != 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    vec = [Fraction(0)] * k
    vec[free] = Fraction(1)
    for row, col in zip(mat, pivots):
        vec[col] = -row[free]
    return vec


def test_circuits_examples():
    found = circuits([(2, 0), (3, 0), (0, 1)])
    assert [(c.support, c.coeffs) for c in found] == [((0, 1), (3, -2))]

    assert circuits([(1, 0), (0, 1)]) == []

    found = circuits([(1, 0), (0, 1), (1, 1)])
    assert [(c.support, c.coeffs) for c in found] == [((0, 1, 2), (1, 1, -1))]


def test_circuit_exactness_and_minimality():
    rng = random.Random(113)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 3)
        vecs = [
            [Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)
        ]
        for c in circuits(vecs):
            total = [Fraction(0)] * n
            for idx, coef in zip(c.support, c.coeffs):
                total = [t + coef * x for t, x in zip(total, vecs[idx])]
            assert not any(total)
            g = 0
            for x in c.coeffs:
                assert x != 0
                g = gcd(g, x)
            assert g == 1
            assert c.coeffs[0] > 0
            # removing any support element leaves an independent family
            for drop in range(len(c.support)):
                rest = tuple(
                    i for k, i in enumerate(c.support) if k != drop
                )
                if rest:
                    assert _kernel(vecs, rest) is None or any(
                        x == 0 for x in _kernel(vecs, rest)
                    ) or len(rest) - _rank_of(vecs, rest) == 0


def _rank_of(vecs, subset):
    return len(rref(_columns(vecs, subset), len(subset))[1])


def test_circuits_match_brute_force():
    rng = random.Random(127)
    for _ in range(150):
        m = rng.randint(1, 7)
        n = rng.randint(1, 4)
        vecs = [
            tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m)
        ]
        got = {c.support: c.coeffs for c in circuits(vecs)}
        assert got == brute_circuits(vecs)

    # rational entries, zero vectors, and repeated or parallel vectors
    for _ in range(150):
        m = rng.randint(1, 7)
        n = rng.randint(1, 4)
        vecs = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.15:
                vecs.append((Fraction(0),) * n)
            elif roll < 0.35 and vecs:
                k = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2)))
                vecs.append(tuple(k * x for x in rng.choice(vecs)))
            else:
                vecs.append(tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(n)
                ))
        got = {c.support: c.coeffs for c in circuits(vecs)}
        assert got == brute_circuits(vecs)

    # one generic 10 x 5 family: a circuit on every 6-subset
    vecs = [tuple(rng.randint(-9, 9) for _ in range(5)) for _ in range(10)]
    got = {c.support: c.coeffs for c in circuits(vecs)}
    assert len(got) == 210
    assert got == brute_circuits(vecs)


def test_first_circuit_of_an_active_subfamily():
    # the refinement's case2 walks the active subfamily for its first
    # circuit; mapped through active, an increasing map, it is the first
    # family circuit with its support inside active. The streamed prime
    # set is the prime set of the listed circuits
    rng = random.Random(31003)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, 8)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        if rng.random() < 0.3:
            vecs[rng.randrange(m)] = rng.choice(((0,) * n, vecs[0]))
        found = circuits(vecs)
        assert found
        assert prime_set(vecs) == prime_set_of_circuits(found)
        for _ in range(4):
            active = sorted(rng.sample(range(m), rng.randint(1, m)))
            sub = first_circuit([vecs[i] for i in active])
            inside = (c for c in found if set(c.support) <= set(active))
            expected = next(inside, None)
            if sub is not None:
                sub = Circuit(tuple(active[i] for i in sub.support), sub.coeffs)
            assert sub == expected
            seen[sub is not None] += 1
    assert seen[True] > 500 and seen[False] > 50


def test_first_circuit_stops_the_walk(monkeypatch):
    # on a generic 20 x 8 family the first descent reaches (0, ..., 7) and
    # tests index 8 there; the walk stops at that circuit, after
    # 19 + 18 + ... + 12 = 124 row operations, of the C(20, 9) circuits
    rng = random.Random(1)
    family = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(20)]
    walked = []

    def counting_eliminate(*args):
        walked.append(1)
        return arith.eliminate(*args)

    mod = sys.modules["latticebox.circuits"]
    monkeypatch.setattr(mod, "eliminate", counting_eliminate)
    assert first_circuit(family).support == tuple(range(9))
    assert len(walked) == sum(range(12, 20)) == 124


def test_zero_vector_singleton():
    found = circuits([(0, 0), (1, 2)])
    assert [(c.support, c.coeffs) for c in found] == [((0,), (1,))]
    assert list(prime_set([(0, 0), (1, 2)])) == []


def test_rational_vectors():
    # relations are taken on the original rational vectors
    found = circuits([(Fraction(1, 2),), (Fraction(1, 3),)])
    assert [(c.support, c.coeffs) for c in found] == [((0, 1), (2, -3))]
    assert list(prime_set([(Fraction(1, 2),), (Fraction(1, 3),)])) == [2, 3]


def test_scaling_behavior():
    # supports never change under positive scaling of one vector; the
    # primitive coefficients transform covariantly with the scale.
    base = [(2, 0), (3, 0), (0, 1)]
    scaled = [(1, 0), (3, 0), (0, 1)]  # first vector halved
    c0 = circuits(base)
    c1 = circuits(scaled)
    assert [c.support for c in c0] == [c.support for c in c1]
    assert c0[0].coeffs == (3, -2)
    assert c1[0].coeffs == (3, -1)


def test_prime_set_examples():
    assert list(prime_set([(2, 0), (3, 0), (0, 1)])) == [2, 3]
    assert list(prime_set([(1, 0), (0, 1)])) == []
    assert list(prime_set([(1, 0), (0, 1), (1, 1)])) == []


def test_prime_set_reorder_invariant():
    rng = random.Random(131)
    for _ in range(60):
        m = rng.randint(2, 5)
        n = rng.randint(1, 3)
        vecs = [
            tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m)
        ]
        perm = list(range(m))
        rng.shuffle(perm)
        assert prime_set(vecs) == prime_set([vecs[i] for i in perm])


def test_prime_set_monotone_in_circuits():
    rng = random.Random(167)
    for _ in range(40):
        m = rng.randint(2, 6)
        n = rng.randint(1, 3)
        vecs = [
            tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m)
        ]
        found = circuits(vecs)
        full = set(prime_set_of_circuits(found))
        for cut in range(len(found) + 1):
            partial = set(prime_set_of_circuits(found[:cut]))
            assert partial <= full


def test_family_limits(monkeypatch):
    with pytest.raises(ResourceLimitError):
        circuits([(1,)] * 21)
    # rank 9 is refused on the walk's first descent, even with 20 vectors
    rng = random.Random(9)
    generic = [[rng.randint(-9, 9) for _ in range(9)] for _ in range(20)]
    with pytest.raises(ResourceLimitError, match="rank 9 exceeds 8"):
        circuits(generic)

    # the module, not the circuits function that latticebox re-exports
    mod = sys.modules["latticebox.circuits"]
    walked = []
    ranked = []

    def counting_eliminate(*args):
        walked.append(1)
        return arith.eliminate(*args)

    def counting_echelon(*args):
        ranked.append(len(walked))
        return arith.echelon(*args)

    monkeypatch.setattr(mod, "eliminate", counting_eliminate)
    monkeypatch.setattr(mod, "echelon", counting_echelon)

    # above the limit the message keeps the exact rank, and the walk makes
    # at most 19 + 18 + ... + 11 = 135 row operations before it is refused
    basis = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(12)]
    families = {
        12: [[rng.randint(-9, 9) for _ in range(12)] for _ in range(20)],
        20: [[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)],
    }
    embedded = [
        [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(20)]
        for coeffs in families[12]
    ]
    for rank, family in [*families.items(), (12, embedded)]:
        walked.clear()
        ranked.clear()
        with pytest.raises(ResourceLimitError, match=f"rank {rank} exceeds 8"):
            circuits(family)
        assert len(ranked) == 1
        assert ranked[0] == len(walked) <= 135

    # within the limits the walk alone checks the rank: no echelon pass
    ranked.clear()
    circuits([[rng.randint(-9, 9) for _ in range(8)] for _ in range(12)])
    circuits([
        [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)]
        for _ in range(9)
    ])
    circuits([(1,)] * 20)
    assert ranked == []


def test_circuit_is_frozen_value():
    c = Circuit((0, 1), (3, -2))
    assert c == Circuit((0, 1), (3, -2))
    assert hash(c) == hash(Circuit((0, 1), (3, -2)))


def _digest_family(rng):
    # integer or rational entries with many zeros, then some vectors zeroed
    # and some replaced by a copy or a multiple of an earlier vector
    m = rng.randint(0, 9)
    n = rng.randint(1, 5)
    rational = rng.random() < 0.3
    vecs = []
    for i in range(m):
        roll = rng.random()
        if roll < 0.1:
            vecs.append([Fraction(0)] * n)
        elif roll < 0.25 and vecs:
            src = rng.choice(vecs)
            k = Fraction(rng.choice((1, 1, -1, 2, -3)), rng.choice((1, 1, 2)))
            vecs.append([k * x for x in src])
        elif rational:
            vecs.append([
                Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)
            ])
        else:
            vecs.append(
                [Fraction(rng.choice((0, 0, 1, -1, 2, -2, 3, -4))) for _ in range(n)]
            )
    if not rational:
        vecs = [[int(x) for x in v] for v in vecs]
    return vecs


def test_circuits_digest():
    # pins the exact circuits output (supports, coefficients, order) on
    # 3,000 seeded families: m 0-9, n 1-5, integer and Fraction entries,
    # zero vectors, repeated and parallel vectors
    rng = random.Random(8191)
    outputs = []
    for _ in range(3000):
        vecs = _digest_family(rng)
        outputs.append([(c.support, c.coeffs) for c in circuits(vecs)])
    assert sum(len(o) for o in outputs) == 24569
    assert (
        hashlib.sha256(repr(outputs).encode()).hexdigest()
        == "70117e4430f485a76f48452945f22d8842a3709bcc9592ef2cc91d1bc3de35b3"
    )


def test_family_vectors_must_share_a_length():
    with pytest.raises(DimensionError, match="differ in length"):
        circuits([(1, 2), (1,)])
