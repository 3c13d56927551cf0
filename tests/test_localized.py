import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from latticebox import arith, localized
from latticebox.arith import PrimeSet, eliminate, in_qp
from latticebox.circuits import circuits, prime_set
from latticebox.errors import (
    DimensionError,
    InconsistencyError,
    LatticeBoxError,
    PreconditionError,
    RingMembershipError,
)
from latticebox.localized import (
    QpBoxInstance,
    RefinementTrace,
    _echelon_system,
    near_integers_solve,
    qp_solve_exact,
    rational_box_solve,
    refine_to_qp,
)
from latticebox.serialize import primes_to_json, rationals_to_json, trace_to_json
import lexmin_oracle

F = Fraction


def check_solution(vectors, target, lower, upper, x):
    n = len(target)
    for j in range(n):
        assert sum(F(x[i]) * F(vectors[i][j]) for i in range(len(vectors))) == F(
            target[j]
        )
    for a, xi, b in zip(lower, x, upper):
        assert F(a) <= F(xi) <= F(b)


def test_rational_box_solve_examples():
    x = rational_box_solve([(2,), (3,)], (1,), (0, 0), (1, 1))
    assert x is not None
    check_solution([(2,), (3,)], (1,), (0, 0), (1, 1), x)

    assert rational_box_solve([(1,)], (2,), (0,), (1,)) is None

    x = rational_box_solve([(1, 1), (1, -1)], (0, 0), (0, 0), (2, 2))
    assert x == [0, 0]


def test_rational_box_solve_random_against_witness():
    # instances built around a known feasible point must come back feasible,
    # and any reported point must verify
    rng = random.Random(137)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 3)
        vecs = [
            tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            for _ in range(m)
        ]
        hidden = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
        target = [
            sum(hidden[i] * vecs[i][j] for i in range(m)) for j in range(n)
        ]
        lower = [hidden[i] - F(rng.randint(0, 3)) for i in range(m)]
        upper = [hidden[i] + F(rng.randint(0, 3)) for i in range(m)]
        x = rational_box_solve(vecs, target, lower, upper)
        assert x is not None
        check_solution(vecs, target, lower, upper, x)


def test_rational_box_solve_infeasible_detection():
    rng = random.Random(139)
    hits = 0
    for _ in range(400):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        vecs = [
            tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m)
        ]
        target = [F(rng.randint(-8, 8)) for _ in range(n)]
        lower = [F(rng.randint(-2, 0)) for _ in range(m)]
        upper = [lower[i] + rng.randint(0, 2) for i in range(m)]
        x = rational_box_solve(vecs, target, lower, upper)
        if x is None:
            hits += 1
            # cross-check: dense grid of box points, none may solve
            continue
        check_solution(vecs, target, lower, upper, x)
    assert hits > 0


def _solve_columns(cols, rhs):
    # the unique y with sum(y_k cols[k]) = rhs, None when there is none, or
    # "singular" when the columns are dependent; plain Gaussian elimination
    # written here so the oracle shares no code with the package
    n, r = len(rhs), len(cols)
    aug = [[cols[k][j] for k in range(r)] + [rhs[j]] for j in range(n)]
    row = 0
    for col in range(r):
        piv = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if piv is None:
            return "singular"
        aug[row], aug[piv] = aug[piv], aug[row]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                f = aug[i][col] / aug[row][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    if any(aug[i][r] != 0 for i in range(r, n)):
        return None
    return [aug[k][r] / aug[k][k] for k in range(r)]


def _free_columns(vectors):
    # the columns that are combinations of the columns before them
    independent, free = [], []
    for c, v in enumerate(vectors):
        col = [F(a) for a in v]
        if _solve_columns(independent, col) is None:
            independent.append(col)
        else:
            free.append(c)
    return free


def _brute_vertices(vectors, target, lower, upper):
    # every vertex of {sum(x_i v_i) = target, lower <= x <= upper}: a basis
    # of r = rank columns solved exactly, the other columns at a bound
    m, n = len(vectors), len(target)
    cols = [[F(a) for a in v] for v in vectors]
    rank = m - len(_free_columns(vectors))
    points = set()
    for basis in combinations(range(m), rank):
        if _solve_columns([cols[i] for i in basis], [F(0)] * n) == "singular":
            continue
        rest = [i for i in range(m) if i not in basis]
        for corner in product((0, 1), repeat=len(rest)):
            x = [None] * m
            for i, side in zip(rest, corner):
                x[i] = F(upper[i] if side else lower[i])
            rhs = [
                F(target[j]) - sum(x[i] * cols[i][j] for i in rest)
                for j in range(n)
            ]
            y = _solve_columns([cols[i] for i in basis], rhs)
            if y is None:
                continue
            for i, yi in zip(basis, y):
                x[i] = yi
            if all(F(a) <= xi <= F(b) for a, xi, b in zip(lower, x, upper)):
                points.add(tuple(x))
    return points


def _lexmin_key(order):
    return lambda x: [x[i] for i in order]


def _degenerate_vectors(rng, n, m):
    # rational entries, with a zero vector, a repeated vector or a parallel
    # one (a rational multiple) in most families
    vecs = [
        [F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)]
        for _ in range(m)
    ]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(m), rng.randrange(m)
        kind = rng.randrange(3)
        if kind == 0:
            vecs[j] = [F(0)] * n
        elif kind == 1:
            vecs[j] = list(vecs[i])
        else:
            c = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            vecs[j] = [c * a for a in vecs[i]]
    return [tuple(v) for v in vecs]


def test_rational_box_solve_is_lexmin_vertex():
    # rational_box_solve returns the vertex that is lexicographically least
    # on the free (non-pivot) columns, taken last column first; that is
    # also the vertex least by x_{m-1}, ..., x_0, as each pivot coordinate
    # is fixed by the free coordinates to its right
    rng = random.Random(24007)
    outcomes = Counter()
    for trial in range(400):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        if trial < 160:
            vecs = [
                tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)
            ]
        else:
            vecs = _degenerate_vectors(rng, n, m)
        hidden = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        if rng.random() < 0.2:
            target = [F(rng.randint(-8, 8)) for _ in range(n)]
        else:
            target = [
                sum(hidden[i] * vecs[i][j] for i in range(m)) for j in range(n)
            ]
        lower = [floor(h) - rng.randint(0, 2) for h in hidden]
        upper = [ceil(h) + rng.randint(0, 2) for h in hidden]
        if rng.random() < 0.2:
            i = rng.randrange(m)
            upper[i] = lower[i]
        got = rational_box_solve(vecs, target, lower, upper)
        points = _brute_vertices(vecs, target, lower, upper)
        if not points:
            assert got is None
            outcomes["infeasible"] += 1
            continue
        free = _free_columns(vecs)
        least = min(points, key=_lexmin_key(free[::-1]))
        assert got == list(least)
        # 0.5 == F(1, 2), so equality alone would miss a float
        assert all(type(xi) is F for xi in got)
        assert least == min(points, key=_lexmin_key(range(m - 1, -1, -1)))
        outcomes["solved"] += 1
    assert outcomes["infeasible"] > 0 and outcomes["solved"] > 100


def test_integral_fallback_is_lexmin_vertex():
    # with an empty prime set every vertex is integral, and every entry
    # point answers with rational_box_solve's vertex, the one least by
    # x_{m-1}, ..., x_0, whatever non-integral point refine_to_qp starts
    # from; the integral vertex is its own refinement, with no steps
    rng = random.Random(24008)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        vecs = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        if prime_set(vecs):
            continue
        hidden = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
        if all(h.denominator == 1 for h in hidden):
            continue
        target = [sum(h * v[j] for h, v in zip(hidden, vecs)) for j in range(n)]
        lower = [floor(h) - rng.randint(0, 2) for h in hidden]
        upper = [ceil(h) + rng.randint(0, 2) for h in hidden]
        inst = QpBoxInstance.build(vecs, target, lower, upper)
        if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
            continue
        got, trace = refine_to_qp(inst, hidden)
        res = near_integers_solve(vecs, target, lower, upper)
        assert res.solution == got
        assert rational_box_solve(vecs, target, lower, upper) == list(got)
        points = _brute_vertices(vecs, target, lower, upper)
        assert all(xi.denominator == 1 for x in points for xi in x)
        assert got == min(points, key=_lexmin_key(range(m - 1, -1, -1)))
        assert all(type(xi) is F for xi in got)
        assert [s.case for s in trace.steps] == ["integral_fallback"]
        assert res.trace.steps == ()
        assert refine_to_qp(inst, got) == (got, RefinementTrace(()))
        done += 1


def _lexmin_instance(rng):
    # a family (integer, rational or degenerate) with bounds around a hidden
    # point: integer bounds or rational ones with denominators 2-6, a fixed
    # coordinate in some, and a target off the hidden point in others
    n, m = rng.randint(1, 3), rng.randint(1, 6)
    kind = rng.randrange(3)
    if kind == 0:
        vecs = [tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)]
    elif kind == 1:
        vecs = [
            tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n))
            for _ in range(m)
        ]
    else:
        vecs = _degenerate_vectors(rng, n, m)
    hidden = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
    if rng.random() < 0.2:
        target = [F(rng.randint(-8, 8)) for _ in range(n)]
    else:
        target = [sum(h * v[j] for h, v in zip(hidden, vecs)) for j in range(n)]
    if rng.random() < 0.5:
        lower = [F(floor(h) - rng.randint(0, 2)) for h in hidden]
        upper = [F(ceil(h) + rng.randint(0, 2)) for h in hidden]
    else:
        dens = [rng.randint(2, 6) for _ in hidden]
        lower = [F(floor(h * d) - rng.randint(0, 6), d) for h, d in zip(hidden, dens)]
        upper = [F(ceil(h * d) + rng.randint(0, 6), d) for h, d in zip(hidden, dens)]
    fixed = rng.random() < 0.25
    if fixed:
        i = rng.randrange(m)
        upper[i] = lower[i]
    return vecs, target, lower, upper, fixed


def test_lexmin_matches_fraction_oracle(monkeypatch):
    # the integer simplex must take the pivot path of the Fraction one:
    # the same vertex, or None, and the same arith.eliminate calls in the
    # same order; the simplex makes them inside arith.clear_column
    calls = {"int": [], "oracle": []}

    def recorded(side):
        def wrapper(row, pivot_row, col):
            calls[side].append((tuple(row), tuple(pivot_row), col))
            return eliminate(row, pivot_row, col)

        return wrapper

    monkeypatch.setattr(arith, "eliminate", recorded("int"))
    monkeypatch.setattr(lexmin_oracle, "eliminate", recorded("oracle"))
    rng = random.Random(24021)
    seen = Counter()
    done = 0
    while done < 10000:
        vecs, target, lower, upper, fixed = _lexmin_instance(rng)
        system = _echelon_system(vecs, target)
        if system is None:
            continue
        calls["int"].clear()
        calls["oracle"].clear()
        got = localized._lexmin(system, lower, upper)
        want = lexmin_oracle.lexmin(system, lower, upper)
        assert got == want
        assert calls["int"] == calls["oracle"]
        if got is None:
            seen["infeasible"] += 1
        else:
            assert all(type(xi) is F for xi in got)
            seen["solved"] += 1
            seen["fixed"] += fixed
            seen["fractional"] += any(xi.denominator > 1 for xi in got)
        seen["eliminate"] += len(calls["int"])
        seen["rational bounds"] += any(a.denominator > 1 for a in lower + upper)
        done += 1
    assert seen["infeasible"] > 1000 and seen["solved"] > 5000
    assert seen["fixed"] > 500 and seen["fractional"] > 3000
    assert seen["rational bounds"] > 1000 and seen["eliminate"] > 5000


def _fraction_solves(vectors, target, x):
    return all(
        sum(xi * v[j] for xi, v in zip(x, vectors)) == t
        for j, t in enumerate(target)
    )


def test_solves_matches_fraction_sums():
    rng = random.Random(24022)
    seen = Counter()
    for _ in range(2000):
        n, m = rng.randint(0, 3), rng.randint(0, 5)
        vecs = [
            tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n))
            for _ in range(m)
        ]
        x = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        target = [sum(xi * v[j] for xi, v in zip(x, vecs)) for j in range(n)]
        assert localized._solves(vecs, target, x)
        if n and rng.random() < 0.5:
            target[rng.randrange(n)] += F(rng.randint(-3, 3), rng.randint(1, 6))
        got = localized._solves(vecs, target, x)
        assert got == _fraction_solves(vecs, target, x)
        seen[got] += 1
        # one coordinate off by 1/q, q the common denominator of x, misses
        # every equation its nonzero vector takes part in
        live = [i for i, v in enumerate(vecs) if any(v)]
        if live and got:
            i = rng.choice(live)
            near = list(x)
            near[i] += F(1, lcm(*(xi.denominator for xi in x)))
            assert not localized._solves(vecs, target, near)
            assert not _fraction_solves(vecs, target, near)
            seen["near miss"] += 1
    assert seen[True] > 500 and seen[False] > 500 and seen["near miss"] > 500
    # the empty family and zero-length vectors
    assert localized._solves([], [F(0), F(0)], [])
    assert not localized._solves([], [F(0), F(1, 3)], [])
    assert localized._solves([(), ()], [], [F(1, 2), F(-3)])
    assert localized._solves([], [], [])


def test_box_solve_guards(monkeypatch):
    lexmin = localized._lexmin

    def nudged(system, lower, upper):
        x = lexmin(system, lower, upper)
        return [x[0] + F(1, 7), *x[1:]]

    monkeypatch.setattr(localized, "_lexmin", nudged)
    with pytest.raises(InconsistencyError, match="simplex vertex lost the equalities"):
        rational_box_solve([(2,), (3,)], (1,), (0, 0), (1, 1))
    # (2, -1) meets x_0 + x_1 = 1 outside the box [0, 1]^2
    monkeypatch.setattr(localized, "_lexmin", lambda *args: [F(2), F(-1)])
    with pytest.raises(InconsistencyError, match="out-of-box point"):
        rational_box_solve([[1], [1]], [1], [0, 0], [1, 1])


def test_refine_guards(monkeypatch):
    # an empty prime set, so _refine takes its vertex from _lexmin
    inst = QpBoxInstance.build([[1], [1]], [1], [0, 0], [1, 1])
    for vertex, message in (
        (None, "the solution set is empty although a solution was given"),
        ([F(1), F(1)], "refined point no longer solves the system"),
        ([F(2), F(-1)], "refined point left the box"),
        ([F(1, 2), F(1, 2)], "refined coordinate is outside the ring"),
    ):
        monkeypatch.setattr(localized, "_lexmin", lambda *args, v=vertex: v)
        with pytest.raises(InconsistencyError, match=message):
            refine_to_qp(inst, [F(1, 2), F(1, 2)])


def test_near_integers_ring_guard(monkeypatch):
    # x_0 + x_1 = 1 has the empty prime set; a vertex that meets the
    # equality inside the box but lies off the integers is refused
    monkeypatch.setattr(localized, "_lexmin", lambda *args: [F(1, 2), F(1, 2)])
    with pytest.raises(InconsistencyError, match="simplex vertex is outside the ring"):
        near_integers_solve([[1], [1]], [1], [0, 0], [1, 1])


def test_induct_guards():
    # forged inputs, as refine_to_qp's checks would stop them: 3·x = 1
    # forces x = 1/3, outside the ring over {2}, and a lone nonzero vector
    # has no circuit for case2 to move along
    inst = replace(QpBoxInstance.build([[3]], [1], [0], [1]), primes=PrimeSet([2]))
    system = _echelon_system(inst.vectors, inst.target)
    with pytest.raises(InconsistencyError, match="no circuit inside the active set"):
        localized._refine(inst, [F(1, 3)], system)

    # a lone zero vector under a forged target 1 and prime set {2}: case2
    # moves the off-ring start along the circuit 1·v = 0 into the ring,
    # and the case1 step that fixes it finds 0·x_0 != 1
    inst = QpBoxInstance.build([[0]], [0], [0], [1])
    system = _echelon_system(inst.vectors, inst.target)
    inst = replace(inst, target=(F(1),), primes=PrimeSet([2]))
    guard = "residual target left the ring span after fixing a ring coordinate"
    with pytest.raises(InconsistencyError, match=guard):
        localized._refine(inst, [F(1, 3)], system)

    # with every coordinate in the ring the start is the answer, and the
    # output checks catch the forged target
    inst = QpBoxInstance.build([[1], [0]], [1], [0, 0], [2, 1])
    system = _echelon_system(inst.vectors, inst.target)
    inst = replace(inst, target=(F(2),), primes=PrimeSet([2]))
    with pytest.raises(InconsistencyError, match="refined point no longer solves"):
        localized._refine(inst, [F(1), F(1, 2)], system)

    # an independent pair off the ring: _induct reads no system, so a
    # forged one with a single pivot changes nothing, and case2 finds no
    # circuit inside the active set, and says so
    inst = QpBoxInstance.build([[1, 0], [0, 1]], [F(1, 3)] * 2, [0, 0], [1, 1])
    inst = replace(inst, primes=PrimeSet([2]))
    system = _echelon_system([[1], [1]], [F(2, 3)])
    with pytest.raises(InconsistencyError, match="no circuit inside the active set"):
        localized._refine(inst, [F(1, 3)] * 2, system)

    # 2/5 + 3/5 = 1 with both coordinates off the ring over {2, 3}: case2
    # moves along the circuit (3, -2). A forged lower bound at the start
    # leaves the shift no room, and a forged prime set without 3 gives a
    # shift with denominator 3
    inst = QpBoxInstance.build([(2,), (3,)], (1,), (0, 0), (1, 1))
    xs = [F(1, 5), F(1, 5)]
    for forged, guard in [
        (replace(inst, lower=(F(1, 5), F(0))), "shift interval has no interior"),
        (replace(inst, primes=PrimeSet([2])), "circuit shift left the ring"),
    ]:
        system = _echelon_system(forged.vectors, forged.target)
        with pytest.raises(InconsistencyError, match=guard):
            localized._refine(forged, xs, system)


def test_empty_families_keep_their_answers():
    # the lcm over no denominators is 1
    assert rational_box_solve([], [0], [], []) == []
    assert rational_box_solve([], [1], [], []) is None
    res = near_integers_solve([[], []], [], [0, 0], [1, 1])
    assert res.solvable and res.solution == (F(0), F(0))
    assert res.trace.steps == ()


def test_qp_solve_exact_examples():
    out = qp_solve_exact([(2,), (3,)], (1,), PrimeSet([2, 3]))
    assert out is not None
    assert sum(o * v[0] for o, v in zip(out, [(2,), (3,)])) == 1
    assert all(in_qp(o, PrimeSet([2, 3])) for o in out)

    assert qp_solve_exact([(2,)], (1,), PrimeSet()) is None
    assert qp_solve_exact([(2,), (3,)], (0,), PrimeSet([2, 3])) == [0, 0]


def test_qp_solve_exact_rejects_prime_set_missing_circuit_primes():
    # the circuit (3, -2) needs {2, 3}; without them 3 is not a ring
    # combination of 2 and the pivot subfamily cannot decide the span
    with pytest.raises(PreconditionError):
        qp_solve_exact([(2,), (3,)], (1,), PrimeSet())


@pytest.mark.parametrize(
    "vectors, target, expected",
    [
        ([], [1], None),
        ([], [], []),
        ([[], []], [], [0, 0]),
        ([(0,)], (0,), [0]),
        ([(0,)], (1,), None),
    ],
)
def test_qp_solve_exact_degenerate_shapes(vectors, target, expected):
    assert qp_solve_exact(vectors, target, PrimeSet()) == expected


def test_qp_solve_exact_ring_sensitivity():
    # 1 = x*2 needs denominator 2: allowed only when 2 is in the ring
    assert qp_solve_exact([(2,)], (1,), PrimeSet([2])) == [F(1, 2)]
    assert qp_solve_exact([(2,)], (1,), PrimeSet([3])) is None


def test_qp_solve_exact_brute_agreement():
    # tiny instances: compare against denominator enumeration
    rng = random.Random(149)
    primes = PrimeSet([2, 3])
    for _ in range(80):
        m = rng.randint(1, 2)
        n = 1
        vecs = [(F(rng.randint(-4, 4)),) for _ in range(m)]
        target = (F(rng.randint(-4, 4)),)
        got = qp_solve_exact(vecs, target, primes)
        found = None
        grid = [
            F(num, den)
            for den in (1, 2, 3, 4, 6, 8, 9, 12)
            for num in range(-24, 25)
        ]
        if m == 1:
            for x0 in grid:
                if x0 * vecs[0][0] == target[0]:
                    found = (x0,)
                    break
        else:
            for x0 in grid:
                rem = target[0] - x0 * vecs[0][0]
                if vecs[1][0] != 0:
                    x1 = rem / vecs[1][0]
                    if in_qp(x1, primes) and x1.denominator <= 12:
                        found = (x0, x1)
                        break
                elif rem == 0:
                    found = (x0, F(0))
                    break
        if found is not None:
            assert got is not None
        if got is not None:
            assert sum(g * v[0] for g, v in zip(got, vecs)) == target[0]
            assert all(in_qp(g, primes) for g in got)


def _coprime_invariant_product(rows, primes):
    # product of the nonzero invariant factors with every prime of P
    # stripped, and how many there are
    diag = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    factors = [int(diag[i, i]) for i in range(min(diag.shape)) if diag[i, i] != 0]
    prod = 1
    for f in factors:
        prod *= abs(f)
    for p in primes:
        while prod % p == 0:
            prod //= p
    return len(factors), prod


def _invariant_factor_verdict(vectors, target, primes):
    # w is in the Q_P-span of A iff A and [A | w] have the same rank and
    # the P-coprime parts of their invariant factor products agree: their
    # ratio is the order of w modulo the integer column span
    scale = lcm(
        *(x.denominator for v in vectors for x in v),
        *(x.denominator for x in target),
    )
    a = [[int(v[j] * scale) for v in vectors] for j in range(len(target))]
    aw = [row + [int(t * scale)] for row, t in zip(a, target)]
    return _coprime_invariant_product(a, primes) == _coprime_invariant_product(
        aw, primes
    )


def test_qp_solve_exact_matches_invariant_factors():
    rng = random.Random(167)
    verdicts = set()

    def check(vecs, target, primes):
        got = qp_solve_exact(vecs, target, primes)
        expected = _invariant_factor_verdict(vecs, target, primes)
        assert (got is not None) == expected
        if got is not None:
            for j in range(len(target)):
                assert sum(x * v[j] for x, v in zip(got, vecs)) == target[j]
            assert all(in_qp(x, primes) for x in got)
        verdicts.add(expected)

    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        vecs = [
            tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n))
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            coeffs = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(m)]
            target = tuple(
                sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(n)
            )
        else:
            target = tuple(
                F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)
            )
        primes = prime_set(vecs)
        check(vecs, target, primes)
        # a subfamily under the full family's primes, as refine_to_qp asks
        subset = sorted(rng.sample(range(m), rng.randint(1, m)))
        check([vecs[i] for i in subset], target, primes)
    assert verdicts == {True, False}


def refine_instance(vectors, target, lower, upper, x):
    inst = QpBoxInstance.build(vectors, target, lower, upper)
    y, trace = refine_to_qp(inst, x)
    for yi in y:
        assert in_qp(yi, inst.primes)
    check_solution(vectors, target, lower, upper, y)
    return inst, y, trace


def test_refine_worked_example():
    inst, y, trace = refine_instance(
        [(2,), (3,)], (1,), (0, 0), (1, 1), (F(1, 5), F(1, 5))
    )
    assert inst.primes == PrimeSet([2, 3])
    cases = [s.case for s in trace.steps]
    assert cases[0] == "case2"
    first = trace.steps[0]
    assert first.clearing_factor == 5
    assert first.scaled_values == (F(1), F(1))
    assert first.circuit.support == (0, 1)
    assert first.circuit.coeffs == (3, -2)
    assert first.shift == F(-1, 3)
    assert y == (F(0), F(1, 3))


def test_refine_identity_when_already_in_ring():
    inst, y, trace = refine_instance(
        [(2,), (3,)], (1,), (0, 0), (1, 1), (F(1, 2), F(0))
    )
    assert y == (F(1, 2), F(0))
    assert trace.steps == ()


def test_refine_zero_vector_takes_the_two_moves():
    # at the top level a lone zero vector has an empty prime set, so an
    # off-ring start takes the integral fallback: the lower bound, which is
    # rational_box_solve's vertex; an integral start is its own refinement
    inst, y, trace = refine_instance([(0,)], (0,), (1,), (2,), (F(3, 2),))
    assert y == (F(1),)
    assert [s.case for s in trace.steps] == ["integral_fallback"]
    assert refine_to_qp(inst, (F(2),)) == ((F(2),), RefinementTrace(()))

    # inside the induction a lone zero vector off the ring over {2, 3}
    # moves along its circuit 1·v = 0: k = 5 clears 7/5 to 7, and the
    # shift 3 lands it on 2, which case1 then fixes
    inst, y, trace = refine_instance(
        [(2,), (3,), (0,)],
        (1,),
        (0, 0, 1),
        (1, 1, 2),
        (F(1, 2), F(0), F(7, 5)),
    )
    assert y == (F(1, 2), F(0), F(2))
    assert [s.case for s in trace.steps] == ["case1", "case1", "case2", "case1"]
    move = trace.steps[2]
    assert (move.pivot, move.clearing_factor, move.scaled_values) == (2, 5, (F(7),))
    assert (move.circuit.support, move.circuit.coeffs) == ((2,), (1,))
    assert (move.shift, move.pivot_value) == (F(3), F(2))
    assert [s.pivot_value for s in trace.steps if s.case == "case1"] == list(y)

    # from a point already in the ring there is nothing to refine
    inst, y, trace = refine_instance(
        [(2,), (3,), (0,)],
        (1,),
        (0, 0, 1),
        (1, 1, 2),
        (F(1, 2), F(0), F(3, 2)),
    )
    assert y == (F(1, 2), F(0), F(3, 2)) and trace.steps == ()


def test_refine_precondition_errors():
    inst = QpBoxInstance.build([(2,), (3,)], (1,), (0, 0), (1, 1))
    with pytest.raises(PreconditionError):
        refine_to_qp(inst, (F(1), F(1)))  # not a solution
    with pytest.raises(PreconditionError):
        refine_to_qp(inst, (F(2), F(-1)))  # solves but outside the box


def test_bounds_ring_validation():
    with pytest.raises(RingMembershipError):
        QpBoxInstance.build([(2,), (3,)], (1,), (0, F(1, 5)), (1, 1))


def test_refine_shrunken_ring_pitfall_instance():
    # Fixing the ring coordinate x1 leaves the subfamily {(3), (0)} whose own
    # prime set is empty; a recursion that shrank the ring would strand the
    # 1/9 bound. The refinement must still succeed.
    vectors = [(2,), (3,), (0,)]
    target = (1,)
    lower = (0, 0, F(1, 9))
    upper = (1, 1, F(1, 9))
    x = (F(1, 2), F(0), F(1, 9))
    inst, y, trace = refine_instance(vectors, target, lower, upper, x)
    assert y[2] == F(1, 9)


def test_refine_integral_fallback_empty_primes():
    # two parallel unit vectors: the only circuit has coefficients (1, -1),
    # so the prime set is empty and the ring is the integers
    vectors = [(1,), (1,)]
    target = (1,)
    lower = (0, 0)
    upper = (1, 1)
    x = (F(1, 2), F(1, 2))
    inst, y, trace = refine_instance(vectors, target, lower, upper, x)
    assert [s.case for s in trace.steps] == ["integral_fallback"]
    assert y == (F(1), F(0))
    # an integral start is its own refinement, also where it is not the
    # vertex
    assert refine_to_qp(inst, (F(0), F(1))) == ((F(0), F(1)), RefinementTrace(()))


def test_integral_fallback_zero_length_family():
    # every point of the bounds solves the system: the lower corner is the
    # vertex, which near_integers_solve answers with, and which the
    # integral fallback gives from a non-integral start
    res = near_integers_solve([(), ()], (), (0, 1), (2, 3))
    assert res.solvable and res.solution == (F(0), F(1))
    assert res.trace.steps == ()
    inst = QpBoxInstance.build([(), ()], (), (0, 1), (2, 3))
    y, trace = refine_to_qp(inst, (F(1, 2), F(3, 2)))
    assert y == (F(0), F(1))
    assert [s.case for s in trace.steps] == ["integral_fallback"]


def test_refine_random_suite():
    rng = random.Random(151)
    done = 0
    while done < 120:
        m = rng.randint(2, 4)
        n = rng.randint(1, 2)
        vecs = [
            tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)
        ]
        hidden = [
            F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)
        ]
        target = [
            sum(hidden[i] * vecs[i][j] for i in range(m)) for j in range(n)
        ]
        lower = [floor(hidden[i]) - rng.randint(0, 2) for i in range(m)]
        upper = [ceil(hidden[i]) + rng.randint(0, 2) for i in range(m)]
        primes = prime_set(vecs)
        if qp_solve_exact(vecs, target, primes) is None:
            continue
        x = rational_box_solve(vecs, target, lower, upper)
        assert x is not None
        inst, y, trace = refine_instance(vecs, target, lower, upper, x)
        assert all(type(xi) is F for xi in x + list(y))
        # trace sanity: clearing factors coprime to the ring primes,
        # shifts inside the ring
        for step in trace.steps:
            if step.clearing_factor is not None:
                assert all(
                    step.clearing_factor % p != 0 for p in inst.primes
                )
            if step.shift is not None:
                assert in_qp(step.shift, inst.primes)
        done += 1


def test_refine_reaches_case2_from_arbitrary_points():
    # every rational_box_solve output is a vertex and so already in the
    # ring; the circuit perturbation (case2) needs points off the ring, so
    # feed the acceptance construction's hidden point and the midpoint of
    # the least and the greatest vertex
    rng = random.Random(24005)
    cases = Counter()
    done = 0
    while done < 200:
        m = rng.randint(2, 6)
        n = rng.randint(1, 3)
        vecs = [tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)]
        hidden = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        target = [
            sum(hidden[i] * vecs[i][j] for i in range(m)) for j in range(n)
        ]
        lower = [floor(hidden[i]) - rng.randint(0, 2) for i in range(m)]
        upper = [ceil(hidden[i]) + rng.randint(0, 2) for i in range(m)]
        inst = QpBoxInstance.build(vecs, target, lower, upper)
        if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
            continue
        least = rational_box_solve(vecs, target, lower, upper)
        # the least vertex of the mirrored system x -> -x is the greatest
        greatest = [
            -z
            for z in rational_box_solve(
                [[-a for a in v] for v in vecs],
                target,
                [-b for b in upper],
                [-a for a in lower],
            )
        ]
        middle = [(a + b) / 2 for a, b in zip(least, greatest)]
        for x in (hidden, middle):
            y, trace = refine_to_qp(inst, x)
            check_solution(vecs, target, lower, upper, y)
            assert all(in_qp(yi, inst.primes) for yi in y)
            cases.update(s.case for s in trace.steps)
        done += 1
    assert cases["case2"] > 0


def test_refine_case2_increases_ring_coordinates():
    # start from solutions with every coordinate outside the ring: the
    # ring target divided across both coordinates through a non-ring prime
    rng = random.Random(157)
    done = 0
    while done < 40:
        v1 = rng.randint(1, 5)
        v2 = rng.randint(1, 5)
        vecs = [(F(v1),), (F(v2),)]
        primes = prime_set(vecs)
        if not primes:
            continue
        w = F(rng.randint(-4, 4))
        x0 = w / (v1 + v2)
        if in_qp(x0, primes):
            continue
        lower = [floor(x0) - 1] * 2
        upper = [ceil(x0) + 1] * 2
        inst, y, trace = refine_instance(vecs, (w,), lower, upper, (x0, x0))
        case2 = [s for s in trace.steps if s.case == "case2"]
        assert len(case2) == 1  # one perturbation makes a ring coordinate
        done += 1


def test_near_integers_examples():
    res = near_integers_solve([(2,), (3,)], (1,), (0, 0), (1, 1))
    assert res.solvable
    assert res.solution == (F(1, 2), F(0))
    check_solution([(2,), (3,)], (1,), (0, 0), (1, 1), res.solution)

    res = near_integers_solve([(2,)], (1,), (0,), (1,))
    assert not res.solvable and res.reason == "not-in-span"

    res = near_integers_solve([(1,)], (2,), (0,), (1,))
    assert not res.solvable and res.reason == "no-rational-solution"


def test_near_integers_solve_large_families():
    # m = 9..20, up to the documented family limit: the rational box
    # solution must come back for every m, and every answer must verify
    rng = random.Random(9020)
    cases = Counter()
    for m in range(9, 21):
        n = rng.randint(2, 3)
        if m % 2:
            vecs = [
                tuple(F(rng.choice((0, 0, 1, -1))) for _ in range(n))
                for _ in range(m)
            ]
            hidden = [F(rng.randint(-3, 3)) for _ in range(m)]
        else:
            vecs = [tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)]
            hidden = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        target = [sum(h * v[j] for h, v in zip(hidden, vecs)) for j in range(n)]
        lower = [floor(h) - rng.randint(0, 2) for h in hidden]
        upper = [ceil(h) + rng.randint(0, 2) for h in hidden]
        res = near_integers_solve(vecs, target, lower, upper)
        assert res.solvable
        check_solution(vecs, target, lower, upper, res.solution)
        assert all(in_qp(y, res.primes) for y in res.solution)
        # the simplex vertex is in the ring already, for every prime set
        assert res.trace.steps == ()
        cases[bool(res.primes)] += 1
    assert cases[True] > 0 and cases[False] > 0


_RAGGED = ([(1, 2), (3,)], (1, 1), (0, 0), (1, 1))
_SHORT_BOUNDS = ([(1,), (2,)], (1,), (0,), (1, 1))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (QpBoxInstance.build, _RAGGED, "vector length differs"),
        (rational_box_solve, _RAGGED, "vector length differs"),
        (near_integers_solve, _RAGGED, "vector length differs"),
        (qp_solve_exact, _RAGGED[:2] + (PrimeSet([2]),), "vector length differs"),
        (QpBoxInstance.build, _SHORT_BOUNDS, "bound count differs"),
        (rational_box_solve, _SHORT_BOUNDS, "bound count differs"),
        (near_integers_solve, _SHORT_BOUNDS, "bound count differs"),
    ],
)
def test_qp_entry_points_reject_shapes(call, args, message):
    with pytest.raises(DimensionError, match=message):
        call(*args)


def test_refine_rejects_solution_length():
    inst = QpBoxInstance.build([(2,), (3,)], (1,), (0, 0), (1, 1))
    with pytest.raises(DimensionError, match="solution length differs"):
        refine_to_qp(inst, (F(1, 2),))


def test_near_integers_bounds_error():
    with pytest.raises(RingMembershipError):
        near_integers_solve([(2,)], (1,), (F(1, 5),), (1,))


def test_clearing_factor_property():
    # if k (coprime to the ring primes) clears the target into a subfamily's
    # ring span, and the target is in the full ring span, then the target is
    # already in the subfamily's ring span
    rng = random.Random(163)
    checked = 0
    while checked < 120:
        m = rng.randint(2, 4)
        n = rng.randint(1, 2)
        vecs = [
            tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)
        ]
        primes = prime_set(vecs)
        k = rng.choice([x for x in (1, 5, 7, 11, 25, 35) if all(x % p for p in primes)])
        size = rng.randint(1, m - 1)
        subset = sorted(rng.sample(range(m), size))
        coeffs = [F(rng.randint(-6, 6), rng.choice([1] + list(primes))) for _ in subset]
        scaled_target = [
            sum(c * vecs[i][j] for c, i in zip(coeffs, subset))
            for j in range(n)
        ]
        target = [t / k for t in scaled_target]
        if qp_solve_exact(vecs, target, primes) is None:
            continue
        sub = qp_solve_exact([vecs[i] for i in subset], target, primes)
        assert sub is not None
        checked += 1


def _trace_families(rng, count):
    # three kinds in turn: entries -4..4 with m 1-6, 0/+-1 entries, and
    # m 4-9; a quarter repeat a vector, 3 in 10 move an integer point along
    # a circuit (off the ring on its support, target still integral), 15%
    # take a random target and 1 in 5 collapse one bound
    for k in range(count):
        if k % 3 == 0:
            n, m = rng.randint(1, 3), rng.randint(1, 6)
            vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        elif k % 3 == 1:
            n, m = rng.randint(1, 3), rng.randint(1, 6)
            vecs = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        else:
            n, m = rng.randint(2, 4), rng.randint(4, 9)
            vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.25:
            i, j = rng.sample(range(m), 2)
            vecs[j] = list(vecs[i])
        hidden = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        if rng.random() < 0.3:
            circs = circuits(vecs)
            if circs:
                c = rng.choice(circs)
                t = F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(2, 7))
                hidden = [F(rng.randint(-4, 4)) for _ in range(m)]
                for i, a in zip(c.support, c.coeffs):
                    hidden[i] += t * a
        if rng.random() < 0.15:
            target = [F(rng.randint(-8, 8)) for _ in range(n)]
        else:
            target = [sum(h * v[j] for h, v in zip(hidden, vecs)) for j in range(n)]
        lower = [floor(h) - rng.randint(0, 2) for h in hidden]
        upper = [ceil(h) + rng.randint(0, 2) for h in hidden]
        if rng.random() < 0.2:
            i = rng.randrange(m)
            upper[i] = lower[i]
        yield vecs, target, lower, upper, hidden


def test_refinement_trace_digest():
    # pins near_integers_solve's reason, solution, full trace JSON and
    # prime set, and refine_to_qp from the hidden point whenever that point
    # solves the system inside the box with the target in the ring span
    digest = hashlib.sha256()
    cases = Counter()
    for vecs, target, lower, upper, hidden in _trace_families(
        random.Random(24011), 2400
    ):
        try:
            res = near_integers_solve(vecs, target, lower, upper)
        except LatticeBoxError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        record = {
            "reason": res.reason,
            "primes": primes_to_json(res.primes),
            "solution": (
                None if res.solution is None else rationals_to_json(res.solution)
            ),
            "trace": None if res.trace is None else trace_to_json(res.trace),
        }
        inst = QpBoxInstance.build(vecs, target, lower, upper)
        solves = all(
            sum(h * v[j] for h, v in zip(hidden, vecs)) == target[j]
            for j in range(len(target))
        )
        inside = all(a <= h <= b for a, h, b in zip(lower, hidden, upper))
        if (
            solves
            and inside
            and qp_solve_exact(inst.vectors, inst.target, inst.primes) is not None
        ):
            y, trace = refine_to_qp(inst, hidden)
            record["hidden"] = [rationals_to_json(y), trace_to_json(trace)]
            cases.update(s.case for s in trace.steps)
            if all(in_qp(h, inst.primes) for h in hidden):
                assert (y, trace.steps) == (tuple(hidden), ())
                cases["in ring"] += 1
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert cases["case2"] >= 10 and cases["in ring"] >= 100
    assert (
        digest.hexdigest()
        == "cea525c2984e2530d401d4994f5787383e309cc312ab4531b473691310359581"
    )


def _outside_prime(primes):
    return next(q for q in sympy.primerange(2, 10**4) if q not in primes)


def _guard_families(rng, count):
    # _trace_families with a zero vector put into one family of four; each
    # family comes with the points to refine: the simplex vertex, the
    # hidden point if it solves the system inside the box, and the vertex
    # moved off the ring along a circuit (case2 needs such points) when the
    # move stays inside the box
    for vecs, target, lower, upper, hidden in _trace_families(rng, count):
        if rng.random() < 0.25:
            i = rng.randint(0, len(vecs))
            vecs.insert(i, [0] * len(target))
            hidden.insert(i, F(rng.randint(-8, 8), rng.randint(1, 6)))
            lower.insert(i, floor(hidden[i]) - rng.randint(0, 2))
            upper.insert(i, ceil(hidden[i]) + rng.randint(0, 2))
        inst = QpBoxInstance.build(vecs, target, lower, upper)
        vertex = rational_box_solve(vecs, target, lower, upper)
        if vertex is None:
            yield inst, []
            continue
        points = [vertex]
        if all(
            sum(h * v[j] for h, v in zip(hidden, vecs)) == t
            for j, t in enumerate(target)
        ) and all(a <= h <= b for a, h, b in zip(lower, hidden, upper)):
            points.append(hidden)
        # each read of family_circuits walks the family again
        circs = inst.family_circuits
        if circs:
            c = rng.choice(circs)
            q = _outside_prime(inst.primes)
            for t in (F(1, q), F(-1, q)):
                moved = list(vertex)
                for i, a in zip(c.support, c.coeffs):
                    moved[i] += t * a
                if all(a <= x <= b for a, x, b in zip(lower, moved, upper)):
                    points.append(moved)
                    break
        yield inst, points


def _forged_instances(rng, count):
    # inputs that break refine_to_qp's preconditions, which _refine does
    # not check: a target outside the ring span, a point moved off the
    # solution set, and a prime set that trades one of its primes for the
    # least prime outside it, so that it misses a circuit prime but stays
    # nonempty and the induction runs
    for inst, points in _guard_families(rng, count):
        if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
            yield inst, points
        elif points and inst.primes:
            yield inst, [[points[0][0] + 1, *points[0][1:]]]
        if inst.primes:
            primes = list(inst.primes)
            primes.remove(rng.choice(primes))
            primes.append(_outside_prime(inst.primes))
            yield replace(inst, primes=PrimeSet(primes)), points


def _outcome(call, *args):
    try:
        return call(*args)
    except LatticeBoxError as exc:
        return type(exc).__name__, str(exc)


def test_case1_guard_matches_fresh_elimination():
    # each case1 step eliminates the remaining family and residual target
    # afresh and asks qp_solve_exact's ring question of them. _refine runs
    # on the guard families and, without refine_to_qp's checks, on the
    # forged inputs; a start whose coordinates are all in the ring, for
    # any prime set, comes back as it is, with no steps, unless an output
    # check stops it
    seen = Counter()

    def refine(inst, x):
        system = _echelon_system(inst.vectors, inst.target)
        out = _outcome(localized._refine, inst, x, system)
        if all(in_qp(xi, inst.primes) for xi in x):
            if not localized._solves(inst.vectors, inst.target, x):
                kept = "InconsistencyError", "refined point no longer solves the system"
            elif not all(a <= xi <= b for a, xi, b in zip(inst.lower, x, inst.upper)):
                kept = "InconsistencyError", "refined point left the box"
            else:
                kept = tuple(x), RefinementTrace(())
            assert out == kept
            seen["in ring"] += 1
        if isinstance(out[0], str):
            seen[out] += 1
        else:
            seen.update(s.case for s in out[1].steps)
        return out

    for inst, points in _guard_families(random.Random(24017), 900):
        if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
            continue
        seen["zero"] += any(not any(v) for v in inst.vectors)
        seen["repeat"] += len(set(inst.vectors)) < inst.size
        for x in points:
            assert not isinstance(refine(inst, x)[0], str)
    # the forged inputs reach the guard's failures; their outcomes are pinned
    digest = hashlib.sha256()
    for inst, points in _forged_instances(random.Random(24019), 900):
        for x in points:
            out = refine(inst, x)
            if isinstance(out[0], str):
                digest.update(repr(out).encode())
            else:
                y, trace = out
                record = [rationals_to_json(y), trace_to_json(trace)]
                digest.update(json.dumps(record, sort_keys=True).encode())
    assert seen["case1"] > 500 and seen["in ring"] > 1000
    assert seen["case2"] >= 100 and seen["zero"] >= 100 and seen["repeat"] >= 100
    assert seen[("PreconditionError", "prime set misses a circuit prime of the family")]
    guard = "residual target left the ring span after fixing a ring coordinate"
    assert seen[("InconsistencyError", guard)]
    assert (
        digest.hexdigest()
        == "8ca9d994ac91aaca67803d8c48f14980dcc93df76c59d4d4aecef8a22ed95bad"
    )


def test_every_induct_coordinate_is_one_case1_step():
    # the induction has two moves and only case1 fixes a coordinate, so
    # every answer of _induct is the pivot_values of its case1 steps, one
    # step per coordinate; checked from the hidden points of the trace
    # families and from every point of the guard families
    inducted = Counter()

    def check(family, inst, x):
        y, trace = refine_to_qp(inst, x)
        if not any(s.case == "case1" for s in trace.steps):
            return
        fixed = [(s.pivot, s.pivot_value) for s in trace.steps if s.case == "case1"]
        assert sorted(fixed) == list(enumerate(y))
        inducted[family] += 1

    for vecs, target, lower, upper, hidden in _trace_families(
        random.Random(24011), 2400
    ):
        try:
            inst = QpBoxInstance.build(vecs, target, lower, upper)
        except LatticeBoxError:
            continue
        if (
            localized._solves(inst.vectors, inst.target, hidden)
            and all(a <= h <= b for a, h, b in zip(lower, hidden, upper))
            and qp_solve_exact(inst.vectors, inst.target, inst.primes) is not None
        ):
            check("trace", inst, hidden)
    for inst, points in _guard_families(random.Random(24017), 900):
        if qp_solve_exact(inst.vectors, inst.target, inst.primes) is not None:
            for x in points:
                check("guard", inst, x)
    assert inducted["trace"] >= 50 and inducted["guard"] >= 100


def test_vertex_is_its_own_refinement(monkeypatch):
    # with a nonempty prime set the simplex vertex is in the ring already,
    # so near_integers_solve answers with it and never runs the induction
    def no_induct(*args):
        raise AssertionError("the induction ran")

    monkeypatch.setattr(localized, "_induct", no_induct)
    solved = 0
    for vecs, target, lower, upper, _ in _trace_families(random.Random(24011), 2400):
        try:
            res = near_integers_solve(vecs, target, lower, upper)
        except LatticeBoxError:
            continue
        if res.solvable and res.primes:
            vertex = rational_box_solve(vecs, target, lower, upper)
            assert (res.solution, res.trace.steps) == (tuple(vertex), ())
            solved += 1
    assert solved > 800


def test_refinement_of_a_refined_point_is_itself():
    # refine_to_qp's output is in the ring, so refining it again returns
    # it with an empty trace whenever the prime set is nonempty
    refined = Counter()
    for inst, points in _guard_families(random.Random(24017), 900):
        if not inst.primes:
            continue
        if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
            continue
        for x in points:
            y, trace = refine_to_qp(inst, x)
            again = refine_to_qp(inst, y)
            assert again == (y, RefinementTrace(()))
            refined[bool(trace.steps)] += 1
    assert refined[True] >= 100 and refined[False] >= 500


def _staged_solve(vecs, target, lower, upper):
    # near_integers_solve's answer from its four public stages, one by one
    inst = QpBoxInstance.build(vecs, target, lower, upper)
    if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
        return localized.QpSolveResult(False, "not-in-span", None, None, inst.primes)
    x = rational_box_solve(inst.vectors, inst.target, inst.lower, inst.upper)
    if x is None:
        reason = "no-rational-solution"
        return localized.QpSolveResult(False, reason, None, None, inst.primes)
    y, trace = refine_to_qp(inst, x)
    return localized.QpSolveResult(True, None, y, trace, inst.primes)


def test_pipeline_matches_its_stages():
    # acceptance-style families: entries -4..4, a hidden solution with
    # denominators 1..6 and integer bounds 0-2 outside it; m <= n leaves
    # independent families, whose prime set is empty. The answer equals the
    # staged run, its trace is empty, and the answers are pinned
    rng = random.Random(31001)
    digest = hashlib.sha256()
    seen = Counter()
    for _ in range(1200):
        n, m = rng.randint(1, 3), rng.randint(1, 6)
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        hidden = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        target = [sum(h * v[j] for h, v in zip(hidden, vecs)) for j in range(n)]
        lower = [floor(h) - rng.randint(0, 2) for h in hidden]
        upper = [ceil(h) + rng.randint(0, 2) for h in hidden]
        res = near_integers_solve(vecs, target, lower, upper)
        assert res == _staged_solve(vecs, target, lower, upper)
        assert res.trace is None or res.trace.steps == ()
        cases = None if res.trace is None else [s.case for s in res.trace.steps]
        record = (res.solvable, res.reason, res.solution, cases, sorted(res.primes))
        digest.update(repr(record).encode())
        seen[res.reason, bool(res.primes)] += 1
    assert seen[None, True] > 300 and seen[None, False] > 100
    assert seen["not-in-span", False] > 50
    assert (
        digest.hexdigest()
        == "cc70818b2fd3c0d4261974e39d072c93ddf1728e2cf8e1f77b3b360191359ed8"
    )


def test_build_rejects_an_empty_bound_interval():
    with pytest.raises(PreconditionError, match="empty bound interval"):
        QpBoxInstance.build([(1,), (1,)], (1,), (1, 0), (0, 1))


def test_rational_box_solve_answers_an_empty_interval_before_eliminating(
    monkeypatch,
):
    def no_elimination(*args):
        raise AssertionError("the system was eliminated")

    monkeypatch.setattr(localized, "_echelon_system", no_elimination)
    assert rational_box_solve([[1]], [1], [2], [1]) is None


def test_refine_rejects_a_target_outside_the_ring_span():
    # 2·x = 1 needs x = 1/2, and the family's prime set is empty
    inst = QpBoxInstance.build([(2,)], (1,), (0,), (1,))
    with pytest.raises(PreconditionError, match="target is outside the ring span"):
        refine_to_qp(inst, (Fraction(1, 2),))
