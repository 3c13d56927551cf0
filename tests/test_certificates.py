import hashlib
import random
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace

import pytest
from tree_oracle import tree_value

from latticebox import certificates
from latticebox.certificates import (
    Box,
    CeilDiv,
    CertificateSet,
    Diff,
    Expr,
    FloorDiv,
    Lower,
    Neg,
    Upper,
    _certificates,
    _leaves,
    _multiplier_bounds,
    _reduced_bounds,
    brute_force_solve,
    evaluate,
    expr_order,
    feasible_by_certificates,
    generate_certificates,
    solve_box,
)
from latticebox.chains import ChainCertificate, DivisorVector, certify
from latticebox.errors import (
    CapExceededError,
    DimensionError,
    InconsistencyError,
    LatticeBoxError,
    ResourceLimitError,
)
from latticebox.lattice import Lattice
from latticebox.localized import near_integers_solve
from latticebox.serialize import certset_to_json, dump, dumps


def rand_box(rng, n, bound=8):
    lo, hi = [], []
    for _ in range(n):
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        lo.append(min(x, y))
        hi.append(max(x, y))
    return Box.of(lo, hi)


def test_box_validation():
    with pytest.raises(ValueError):
        Box.of((1,), (0,))
    with pytest.raises(DimensionError):
        Box.of((1,), (2, 3))
    assert Box.of((0, 0), (1, 2)).point_count() == 6
    # [0.5, 0.9] holds no integer; truncating it to [0, 0] would make the
    # box feasible for every lattice
    for lower, upper in (((0.5,), (0.9,)), (("0",), ("1",)), ((Fraction(1),), (2,))):
        with pytest.raises(TypeError):
            Box.of(lower, upper)
    # a directly built box checks its bounds too: Box((0.5, 0.5), (2.5, 2.5))
    # once gave solve_box the float witness (1.0, 1.0) on Lattice(2, [[1, 1]])
    for lower, upper in (((0.5,), (1,)), (("0",), (1,)), ((0.5, 0.5), (2.5, 2.5))):
        with pytest.raises(TypeError):
            Box(lower, upper)
    box = Box([True], (2,))
    assert box == Box.of((1,), (2,)) and type(box.lower[0]) is int


def test_evaluate_examples():
    e = Diff(FloorDiv(Upper(0), 2), CeilDiv(Lower(0), 2))
    assert evaluate(e, (0,), (4,)) == 2
    assert evaluate(Lower(0), (-5,), (0,)) == -5
    assert evaluate(Neg(CeilDiv(Upper(0), -3)), (0,), (0,)) == 0
    # int() would truncate the bound 0.5 to 0
    for a, b in (((0.5,), (1,)), (("0",), (1,)), ((0,), (Fraction(1),))):
        with pytest.raises(TypeError):
            evaluate(Diff(Upper(0), Lower(0)), a, b)


def test_expr_order():
    assert expr_order(Lower(0)) == 0
    assert expr_order(Diff(FloorDiv(Upper(0), 2), CeilDiv(Lower(0), 2))) == 1
    nested = FloorDiv(Diff(FloorDiv(Upper(0), 2), Lower(1)), 3)
    assert expr_order(nested) == 2
    assert expr_order(Neg(nested)) == 2


def test_shared_chain_is_walked_once():
    # each level uses the one below twice, so each root stands for over 2^64
    # tree nodes held in 129 objects (193 for f); a full-tree walk never ends
    e = Upper(0)
    for _ in range(64):
        e = FloorDiv(Diff(e, e), 1)
    assert expr_order(e) == 64
    assert evaluate(e, (3,), (7,)) == 0
    # floor((x - -x) / 2) == x keeps b_0 through every level
    f = Upper(0)
    for _ in range(64):
        f = FloorDiv(Diff(f, Neg(f)), 2)
    assert expr_order(f) == 64
    assert evaluate(f, (3,), (7,)) == 7
    certs = CertificateSet(1, 1, (e, f))
    assert feasible_by_certificates(certs, Box.of((3,), (7,)))
    assert not feasible_by_certificates(certs, Box.of((-9,), (-2,)))


def test_expr_zero_divisor_rejected():
    with pytest.raises(ValueError):
        FloorDiv(Lower(0), 0)
    with pytest.raises(ValueError):
        CeilDiv(Lower(0), 0)


def test_negation_identity_property():
    # -floor(x/m) == ceil(-x/m) as expression trees, on random inputs
    rng = random.Random(83)
    for _ in range(300):
        m = rng.choice([x for x in range(-9, 10) if x != 0])
        inner = Diff(Upper(0), Lower(1))
        left = Neg(FloorDiv(inner, m))
        right = CeilDiv(Neg(inner), m)
        a = (rng.randint(-20, 20), rng.randint(-20, 20))
        b = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert evaluate(left, a, b) == evaluate(right, a, b)


def rank1_certificates(div):
    """The rank-1 certificate family of div over the box bounds."""
    return _certificates(div, None, *_leaves(len(div.v)))


def reduced_bounds_exprs(div):
    """The reduced-coordinate bound expressions of div, as (lowers, uppers)."""
    lower, upper = _leaves(len(div.v))
    bounds = _multiplier_bounds(div, lower, upper, FloorDiv, CeilDiv)
    return _reduced_bounds(div, bounds, lower, upper, Diff)


def test_rank1_certificates_family_shape():
    # one positive, one negative, one zero coordinate
    dv = DivisorVector.of((2, -3, 0))
    exprs = rank1_certificates(dv)
    assert len(exprs) == 6  # 1 pos/pos, 1 neg/neg, 2 mixed, 2 zero-coordinate
    box_lo, box_hi = (0, -6, -1), (4, 0, 5)
    values = [evaluate(e, box_lo, box_hi) for e in exprs]
    assert values == [2, 2, 2, 2, 5, 1]
    assert all(expr_order(e) <= 1 for e in exprs)

    assert len(rank1_certificates(DivisorVector.of((1,)))) == 1


def test_rank1_zero_coordinate_soundness():
    # b - a >= 0 alone would wrongly accept a box missing the hyperplane
    lat = Lattice(2, [(2, 0)])
    chain = certify(lat)
    certs = generate_certificates(chain)
    box = Box.of((0, 3), (4, 5))
    assert not feasible_by_certificates(certs, box)
    assert brute_force_solve(lat, box) is None
    assert solve_box(chain, box) is None


def test_reduced_bounds_examples():
    # both positive
    dv = DivisorVector.of((2, 4))
    lowers, uppers = reduced_bounds_exprs(dv)
    assert lowers == [Diff(CeilDiv(Lower(0), 2), FloorDiv(Upper(1), 4))]
    assert uppers == [Diff(FloorDiv(Upper(0), 2), CeilDiv(Lower(1), 4))]

    # mixed positive/negative with a zero passthrough
    dv = DivisorVector.of((1, 0, -1))
    lowers, uppers = reduced_bounds_exprs(dv)
    assert lowers == [
        Diff(CeilDiv(Lower(0), 1), FloorDiv(Lower(2), -1)),
        Lower(1),
    ]
    assert uppers == [
        Diff(FloorDiv(Upper(0), 1), CeilDiv(Upper(2), -1)),
        Upper(1),
    ]

    # negative i, positive j
    dv = DivisorVector.of((-2, 4))
    lowers, uppers = reduced_bounds_exprs(dv)
    assert lowers == [Diff(CeilDiv(Upper(0), -2), FloorDiv(Upper(1), 4))]
    assert uppers == [Diff(FloorDiv(Lower(0), -2), CeilDiv(Lower(1), 4))]

    # both negative
    dv = DivisorVector.of((-2, -4))
    lowers, uppers = reduced_bounds_exprs(dv)
    assert lowers == [Diff(CeilDiv(Upper(0), -2), FloorDiv(Lower(1), -4))]
    assert uppers == [Diff(FloorDiv(Lower(0), -2), CeilDiv(Upper(1), -4))]


def test_mixed_sign_chain_pinned():
    # the chain divisors (3, -3, 0, 3) and (1, 0, -1, -1) between them
    # cover all four sign pairs of the reduced-bound rule
    lat = Lattice(4, [[3, 0, -1, 3], [0, 3, -1, 0]])
    chain = certify(lat)
    assert chain.divisor.v == (3, -3, 0, 3)
    assert chain.child.divisor.v == (1, 0, -1, -1)
    certs = generate_certificates(chain)
    text = dumps(certset_to_json(certs)).encode()
    assert len(certs.exprs) == 14
    assert len(text) == 8071
    assert (
        hashlib.sha256(text).hexdigest()
        == "f3434bb307982e7e5e97efd9878f1b63433976b404801e20746b17d2f660e9ba"
    )

    rng = random.Random(2024)
    witnesses = [solve_box(chain, rand_box(rng, 4)) for _ in range(24)]
    assert witnesses == [
        (0, 0, 0, 0), None, (3, -3, 0, 3), None, None, (-3, -6, 3, -3),
        (0, 0, 0, 0), None, None, None, None, None,
        None, None, (-3, -3, 2, -3), None, None, None,
        (0, 6, -2, 0), (0, -3, 1, 0), None, (-3, -6, 3, -3), None, None,
    ]


def _near_point_box(rng, lat):
    # a narrow box around an integer combination of the basis with
    # coefficients up to 10^9, shifted so it may miss the lattice
    coeffs = [rng.randint(-10**9, 10**9) for _ in lat.basis]
    point = [
        sum(c * row[j] for c, row in zip(coeffs, lat.basis))
        for j in range(lat.ambient_dim)
    ]
    lower = [x - rng.randint(0, 3) + (rng.random() < 0.25) for x in point]
    return Box.of(lower, [lo + rng.choice((0, 1, 2, 3)) for lo in lower])


def _nodes(expr, seen):
    """Tree size of expr; records every node object reached in seen, by id."""
    seen[id(expr)] = expr
    return 1 + sum(
        _nodes(getattr(expr, f.name), seen)
        for f in fields(expr)
        if isinstance(getattr(expr, f.name), Expr)
    )


def test_reference_anchor():
    # the reference lattice of the benchmark: the sizes of its set and the
    # bytes of its certs output are pinned; the top-down build holds each
    # structurally distinct subexpression as exactly one object
    lat = Lattice(4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    certs = generate_certificates(certify(lat))
    seen = {}
    assert len(certs.exprs) == 607
    assert sum(_nodes(e, seen) for e in certs.exprs) == 31594
    assert len(set(seen.values())) == 778
    assert len(seen) == 778
    text = dumps(certset_to_json(certs)).encode()
    assert len(text) == 2993578
    assert (
        hashlib.sha256(text).hexdigest()
        == "ef05fa41860c34f26dbb49c00890f53f2a011062bcd0f5ec1a9e14cb5dde966d"
    )


def _dicts(data, seen):
    """Records every dict reached from data in seen, by id."""
    if isinstance(data, dict) and id(data) not in seen:
        seen[id(data)] = data
        for value in data.values():
            _dicts(value, seen)
    elif isinstance(data, list):
        for value in data:
            _dicts(value, seen)


def test_reference_json_shares_dicts_and_streams():
    # one dict per distinct node, not per tree node (31,594), and dump
    # writes the same bytes as dumps in batches, never the whole text at once
    lat = Lattice(4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    payload = certset_to_json(generate_certificates(certify(lat)))
    seen = {}
    _dicts(payload["exprs"], seen)
    assert len(seen) == 778
    writes = []
    dump(payload, SimpleNamespace(write=writes.append))
    text = "".join(writes)
    assert text == dumps(payload)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "ef05fa41860c34f26dbb49c00890f53f2a011062bcd0f5ec1a9e14cb5dde966d"
    )
    assert len(writes) > 1
    assert max(len(w.encode()) for w in writes) < 1_000_000


def test_solve_box_witness_digest(monkeypatch):
    # pins the exact witnesses solve_box picks: seeded in-class chains of
    # every rank 1-4, each on small boxes and on boxes near lattice points
    # with coordinates around 10^9
    chains = [
        certify(Lattice(4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])),
        certify(Lattice(4, [[3, 0, -1, 3], [0, 3, -1, 0]])),
    ]
    rng = random.Random(8128)
    per_rank = {1: 0, 2: 0, 3: 0, 4: 0}
    monkeypatch.setattr("latticebox.chains.MAX_IMAGE_DIM", 12)
    while min(per_rank.values()) < 8:
        n = rng.randint(1, 5)
        gens = [
            [rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        lat = Lattice(n, gens)
        if per_rank.get(lat.rank, 8) >= 8:
            continue
        try:
            chain = certify(lat)
        except ResourceLimitError:
            continue
        if chain is not None:
            chains.append(chain)
            per_rank[lat.rank] += 1

    witnesses = []
    for chain in chains:
        lat = chain.lattice
        for _ in range(12):
            witnesses.append(solve_box(chain, rand_box(rng, lat.ambient_dim, 3)))
            witnesses.append(solve_box(chain, _near_point_box(rng, lat)))
    assert len(witnesses) == 816
    assert sum(w is not None for w in witnesses) == 578
    assert (
        hashlib.sha256(repr(witnesses).encode()).hexdigest()
        == "a8a1e386e7b916412a11564727de5351789df9ea134276bbcc0f20c42f43cabc"
    )


def test_near_integers_solve_digest():
    # pins the exact near_integers_solve outcomes on small 0/+-1 families;
    # their circuits are mostly unimodular, so the prime set is often empty.
    # Every solved family, 117 of them with an empty prime set and one with
    # a nonempty one, keeps its vertex with no steps
    rng = random.Random(4099)
    outcomes = []
    for _ in range(600):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        vecs = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        hidden = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
        target = [sum(h * v[j] for h, v in zip(hidden, vecs)) for j in range(n)]
        lower = [rng.randint(-3, 2) for _ in range(m)]
        upper = [lo + rng.randint(0, 4) for lo in lower]
        try:
            res = near_integers_solve(vecs, target, lower, upper)
        except LatticeBoxError as exc:
            outcomes.append(type(exc).__name__)
            continue
        cases = None if res.trace is None else [s.case for s in res.trace.steps]
        outcomes.append((res.reason, res.solution, cases))
    assert sum(o[2] == [] for o in outcomes) == 118
    assert all(o[2] in (None, []) for o in outcomes if isinstance(o, tuple))
    assert (
        hashlib.sha256(repr(outcomes).encode()).hexdigest()
        == "38e9ed8fd8a941736b2fca9020ae663bf3841bddb010debe06b815783f59b069"
    )


def test_solve_box_rejects_child_outside_image():
    # a forged chain whose child claims Z while the true image is 2Z: the
    # lift must refuse a child witness that no lattice member maps to
    lat = Lattice(2, [(2, 4), (0, 8)])
    c = certify(lat)
    forged = ChainCertificate(lat, c.divisor, certify(Lattice(1, [(1,)])))
    with pytest.raises(InconsistencyError, match="outside the image lattice"):
        solve_box(forged, Box.of((0, 0), (2, 6)))
    assert solve_box(forged, Box.of((0, 0), (4, 8))) == (0, 8)

def test_generate_certificates_rank2():
    lat = Lattice(2, [(2, 4), (0, 8)])
    chain = certify(lat)
    certs = generate_certificates(chain)
    assert certs.rank == 2
    assert certs.ambient_dim == 2
    assert len(certs.exprs) == 3  # rank-1 family on the reduced bounds + two diagonals
    assert max(expr_order(e) for e in certs.exprs) == 2


def test_order_bound_random():
    rng = random.Random(89)
    done = 0
    while done < 60:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        lat = Lattice(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)])
        if lat.rank == 0:
            continue
        try:
            chain = certify(lat)
        except ResourceLimitError:
            continue
        if chain is None:
            continue
        certs = generate_certificates(chain)
        assert all(expr_order(e) <= lat.rank for e in certs.exprs)
        done += 1


def test_worked_example_full_agreement():
    lat = Lattice(3, [(2, -3, 0)])
    chain = certify(lat)
    certs = generate_certificates(chain)
    box = Box.of((0, -6, -1), (4, 0, 5))
    assert feasible_by_certificates(certs, box)
    assert solve_box(chain, box) == (0, 0, 0)
    assert brute_force_solve(lat, box) == (0, 0, 0)

    bad = Box.of((1,), (1,))
    lat1 = Lattice(1, [(2,)])
    chain1 = certify(lat1)
    assert not feasible_by_certificates(generate_certificates(chain1), bad)
    assert solve_box(chain1, bad) is None
    assert brute_force_solve(lat1, bad) is None


def test_zero_box_feasible():
    lat = Lattice(2, [(2, 4), (0, 8)])
    chain = certify(lat)
    box = Box.of((0, 0), (0, 0))
    assert feasible_by_certificates(generate_certificates(chain), box)
    assert solve_box(chain, box) == (0, 0)


def test_three_way_agreement_random():
    rng = random.Random(97)
    lattices = 0
    while lattices < 60:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        lat = Lattice(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)])
        if lat.rank == 0:
            continue
        try:
            chain = certify(lat)
        except ResourceLimitError:
            continue
        if chain is None:
            continue
        certs = generate_certificates(chain)
        for _ in range(6):
            box = rand_box(rng, n)
            by_cert = feasible_by_certificates(certs, box)
            witness = solve_box(chain, box)
            oracle = brute_force_solve(lat, box)
            assert by_cert == (witness is not None) == (oracle is not None)
            if witness is not None:
                assert lat.member(witness)
                assert all(
                    lo <= x <= hi
                    for lo, x, hi in zip(box.lower, witness, box.upper)
                )
        lattices += 1


def test_deep_chain_agreement():
    # ranks 3 and 4 force substitution depth >= 3 and image lattices in
    # growing ambient dimensions; the random suites reach these rarely
    rng = random.Random(555)
    cases = [
        Lattice(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Lattice(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        Lattice(3, [(2, 0, 0), (0, 4, 0), (0, 0, 8)]),
        Lattice(4, [(1, 1, 1, 1), (0, 2, 2, 2), (0, 0, 4, 4), (0, 0, 0, 8)]),
        Lattice(4, [(3, 0, 0, 3), (0, 3, 0, 3), (0, 0, 3, 3)]),
    ]
    for lat in cases:
        chain = certify(lat)
        assert chain is not None and chain.chain_length == lat.rank
        certs = generate_certificates(chain)
        assert max(expr_order(e) for e in certs.exprs) <= lat.rank
        for _ in range(25):
            lo, hi = [], []
            for _ in range(lat.ambient_dim):
                x, y = rng.randint(-9, 9), rng.randint(-9, 9)
                lo.append(min(x, y))
                hi.append(max(x, y))
            box = Box.of(lo, hi)
            by_cert = feasible_by_certificates(certs, box)
            witness = solve_box(chain, box)
            oracle = brute_force_solve(lat, box)
            assert by_cert == (witness is not None) == (oracle is not None)


def test_monotonicity_under_box_growth():
    rng = random.Random(103)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        lat = Lattice(n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
        if lat.rank == 0:
            continue
        chain = certify(lat)
        if chain is None:
            continue
        box = rand_box(rng, n, bound=6)
        if solve_box(chain, box) is None:
            continue
        grown = Box.of(
            [lo - rng.randint(0, 2) for lo in box.lower],
            [hi + rng.randint(0, 2) for hi in box.upper],
        )
        assert solve_box(chain, grown) is not None
        done += 1


def test_brute_force_lexicographic_and_cap():
    lat = Lattice(2, [(1, 0), (0, 1)])
    box = Box.of((-1, -1), (1, 1))
    assert brute_force_solve(lat, box) == (-1, -1)
    with pytest.raises(CapExceededError):
        brute_force_solve(lat, Box.of((0, 0), (2000, 2000)))


def test_dimension_mismatch():
    lat = Lattice(2, [(1, 0), (0, 1)])
    chain = certify(lat)
    certs = generate_certificates(chain)
    with pytest.raises(DimensionError):
        feasible_by_certificates(certs, Box.of((0,), (1,)))
    with pytest.raises(DimensionError):
        solve_box(chain, Box.of((0,), (1,)))
    with pytest.raises(DimensionError):
        brute_force_solve(lat, Box.of((0,), (1,)))


REFERENCE = Lattice(4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])


def test_feasible_divides_once_per_distinct_node(monkeypatch):
    # on a feasible box every expression is evaluated, so the divisions are
    # exactly the distinct FloorDiv and CeilDiv objects of the set; a walk of
    # the full trees makes 15,490 of them
    certs = generate_certificates(certify(REFERENCE))
    seen = {}
    for e in certs.exprs:
        _nodes(e, seen)
    divisions = sum(isinstance(node, (FloorDiv, CeilDiv)) for node in seen.values())
    assert divisions == 82
    calls = []

    def counted(fn):
        def wrapper(x, m):
            calls.append(m)
            return fn(x, m)

        return wrapper

    monkeypatch.setattr(certificates, "floor_div", counted(certificates.floor_div))
    monkeypatch.setattr(certificates, "ceil_div", counted(certificates.ceil_div))
    # (10^9 + 1, -999999998, 8, 10^9 + 3) is the member x, y, 2z, x + 2w
    # with x = 10^9 + 1, y = -999999998, z = 4, w = 1
    point = (10**9 + 1, -999999998, 8, 10**9 + 3)
    box = Box.of([x - 1 for x in point], [x + 1 for x in point])
    assert feasible_by_certificates(certs, box)
    assert len(calls) == 82


def test_solve_box_divides_once_per_level(monkeypatch):
    # the chain's levels have 4, 5, 8 and 24 nonzero coordinates; each
    # level divides its bounds once, two divisions per nonzero coordinate,
    # and after the lift reads the range of t off those same bounds
    chain = certify(REFERENCE)
    supports = []
    level = chain
    while level is not None:
        supports.append(len(level.divisor.pos + level.divisor.neg))
        level = level.child
    assert supports == [4, 5, 8, 24]
    calls = []

    def counted(fn):
        def wrapper(x, m):
            calls.append(m)
            return fn(x, m)

        return wrapper

    monkeypatch.setattr(certificates, "floor_div", counted(certificates.floor_div))
    monkeypatch.setattr(certificates, "ceil_div", counted(certificates.ceil_div))
    box = Box.of((10**9 + 1, -999999998, 7, -3), (10**9 + 2, -999999997, 8, -2))
    assert solve_box(chain, box) == (1000000002, -999999997, 8, -2)
    assert len(calls) == 2 * sum(supports) == 82


def _oracle_box(rng, lat):
    # near a lattice point with coordinates around 10^9, shifted so it may
    # miss the lattice; widths 0-3, and 1 box in 16 wide (10 to 10^4)
    coeffs = [rng.randint(-10**9, 10**9) for _ in lat.basis]
    point = [
        sum(c * row[j] for c, row in zip(coeffs, lat.basis))
        for j in range(lat.ambient_dim)
    ]
    lower = [x - rng.randint(0, 3) + (rng.random() < 0.25) for x in point]
    if rng.randrange(16) == 0:
        return Box.of(lower, [lo + rng.randint(10, 10**4) for lo in lower])
    return Box.of(lower, [lo + rng.randint(0, 3) for lo in lower])


def test_evaluate_matches_tree_oracle(monkeypatch):
    # the shared-node evaluation against a full-tree walk, expression by
    # expression and as a verdict, on the reference lattice and seeded
    # in-class chains of every rank 1-4
    rng = random.Random(1818)
    chains = [certify(REFERENCE)]
    per_rank = {1: 0, 2: 0, 3: 0, 4: 0}
    monkeypatch.setattr("latticebox.chains.MAX_IMAGE_DIM", 12)
    while min(per_rank.values()) < 6:
        n = rng.randint(1, 5)
        gens = [
            [rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        lat = Lattice(n, gens)
        if per_rank.get(lat.rank, 6) >= 6:
            continue
        try:
            chain = certify(lat)
        except ResourceLimitError:
            continue
        if chain is not None:
            chains.append(chain)
            per_rank[lat.rank] += 1

    verdicts = []
    for chain in chains:
        certs = generate_certificates(chain)
        for _ in range(80):
            box = _oracle_box(rng, chain.lattice)
            a, b = box.lower, box.upper
            values = [tree_value(e, a, b) for e in certs.exprs]
            assert [evaluate(e, a, b) for e in certs.exprs] == values
            verdict = feasible_by_certificates(certs, box)
            assert verdict == all(v >= 0 for v in values)
            verdicts.append(verdict)
    assert len(verdicts) == 2000
    assert 200 < sum(verdicts) < 1800

