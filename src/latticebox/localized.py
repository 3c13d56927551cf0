"""Exact rational box solving and refinement into restricted denominators.

Given vectors v_1..v_m, a target w, and box bounds whose denominators
factor over the family's circuit primes P, a rational box-constrained
solution of sum(x_i v_i) = w can always be refined into one whose
coordinates all lie in the ring Q_P of P-smooth-denominator rationals.
A point whose coordinates are all in the ring already is its own
refinement, with an empty trace, for every prime set. The simplex vertex
always is one, so near_integers_solve answers with the vertex after one
ring test per coordinate and never runs the refinement; refine_to_qp is
there for callers with another starting point. From a point off the
ring the refinement walks the constructive induction, which has two
moves: a coordinate already in the ring is fixed (case1), and when no
coordinate qualifies, a single perturbation along a circuit direction
lands one coordinate in the ring without leaving the box or changing
the target (case2). With an empty prime set the ring is the integers
and case2 has no prime to round with, so the refinement answers from an
off-ring start with the simplex vertex instead (integral_fallback).

The recursion keeps the top-level prime set throughout. Shrinking to the
remaining subfamily's prime set (and rescaling bounds to compensate) can
push sub-instance bounds outside the shrunken ring and strand the
recursion, while every inductive step only needs the circuit coefficients
to stay invertible, which any superset of the family's primes guarantees.
So the trace records no per-step prime set: the one of any step is the
prime set of the vectors still active there, which the pivots already in
the trace determine.

The exact rational box solution that the refinement starts from comes
from a bounded-variable simplex that keeps every coordinate and bound as
an integer numerator over one shared denominator. The elimination, the
simplex, the equality checks and the ring tests compute on integers;
Fraction values appear where the data enters and leaves (parsed input,
returned coordinates, trace fields) and in the steps of _induct.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .arith import PrimeSet, clear_column, echelon, in_qp, parse_rational
from .circuits import Circuit, circuits, first_circuit, prime_set
from .errors import (
    DimensionError,
    InconsistencyError,
    PreconditionError,
    RingMembershipError,
)


def _parse(vectors, target, *bounds):
    """The family, the target and each bound list as shape-checked Fractions."""
    vecs = tuple(tuple(parse_rational(x) for x in v) for v in vectors)
    w = tuple(parse_rational(x) for x in target)
    parsed = tuple(tuple(parse_rational(x) for x in b) for b in bounds)
    if any(len(v) != len(w) for v in vecs):
        raise DimensionError("vector length differs from target length")
    if any(len(b) != len(vecs) for b in parsed):
        raise DimensionError("bound count differs from family size")
    return (vecs, w, *parsed)


def _solves(vectors, target, x) -> bool:
    """Whether sum(x_i v_i) = target exactly, tested on integers.

    x is cleared of denominators once, by d; each equation, its column
    and its target entry, once more, by e. Then sum(x_i v_ij) = t_j iff
    the integer sum of (d·x_i)(e·v_ij) equals (e·t_j)·d.
    """
    d = lcm(*(xi.denominator for xi in x))
    xs = [xi.numerator * (d // xi.denominator) for xi in x]
    for j, t in enumerate(target):
        col = [v[j] for v in vectors]
        e = lcm(t.denominator, *(c.denominator for c in col))
        total = sum(a * c.numerator * (e // c.denominator) for a, c in zip(xs, col))
        if total != t.numerator * (e // t.denominator) * d:
            return False
    return True


@dataclass(frozen=True)
class QpBoxInstance:
    """A box-constrained linear system with ring-compatible bounds."""

    vectors: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    primes: PrimeSet

    @classmethod
    def build(cls, vectors, target, lower, upper) -> "QpBoxInstance":
        vecs, w, lo, hi = _parse(vectors, target, lower, upper)
        for a, b in zip(lo, hi):
            if a > b:
                raise PreconditionError(f"empty bound interval [{a}, {b}]")
        primes = prime_set(vecs)
        for x in lo + hi:
            if not in_qp(x, primes):
                raise RingMembershipError(f"bound {x} is outside the ring")
        return cls(vecs, w, lo, hi, primes)

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def family_circuits(self) -> tuple[Circuit, ...]:
        """The family's circuits in support order, walked afresh on each read."""
        return tuple(circuits(self.vectors))


@dataclass(frozen=True)
class RefineStep:
    """One audited step of the refinement recursion (original indices)."""

    case: str
    pivot: int | None = None
    clearing_factor: int | None = None
    scaled_values: tuple[Fraction, ...] | None = None
    circuit: Circuit | None = None
    shift: Fraction | None = None
    pivot_value: Fraction | None = None


@dataclass(frozen=True)
class RefinementTrace:
    steps: tuple[RefineStep, ...]


def _echelon_system(vectors, target):
    """(rows, pivots): the pivot rows of echelon on [v_0 ... v_{m-1} | target].

    Only the pivot rows are kept: the others are zero on the family, and
    None is returned when one of them has a nonzero right-hand side.
    """
    m = len(vectors)
    rows = [[v[j] for v in vectors] + [t] for j, t in enumerate(target)]
    mat, pivots = echelon(rows, m)
    if any(row[m] for row in mat[len(pivots):]):
        return None
    return mat[: len(pivots)], pivots


def _lexmin(system, lower, upper):
    """The lexicographic minimum of {x : sum(x_i v_i) = target, lower <= x <= upper}.

    system is _echelon_system(vectors, target), consistent; it is not
    modified. Minimizes x_{m-1} first, then x_{m-2}, down to x_0, fixing
    each at its minimum before the next; returns None when the set is
    empty. This is an exact bounded-variable simplex on integer rows, each
    scaled to a positive basic entry that ratios and updates divide by; a
    basis exchange is one arith.clear_column. The echelon form of the
    equalities gives the first basis, with every nonbasic variable at its
    lower bound.
    Phase 1 widens the bounds of each basic variable that starts outside
    them to take in its start value, then drives those variables back one
    at a time; one that cannot get back proves the set empty, because the
    widened set contains it. Every pivot follows Bland's rule: the lowest
    improving index enters, and ratio-test ties go to the lowest index. So
    no basis repeats and every descent ends (Bland 1977). Every variable is
    boxed, so no descent is unbounded.

    Every coordinate and bound is an integer numerator over one shared
    positive denominator q, at first the lcm of the bound denominators.
    Before an update that would leave a numerator fractional, every
    numerator and q are multiplied by the smallest integer that keeps it
    exact. Ratio-test rooms are compared by cross-multiplying. So each
    comparison is between the same rationals as on Fraction values, and
    only the returned vertex is made of Fractions.
    """
    m = len(lower)
    mat, pivots = system
    basis = list(pivots)
    rows = [row[:m] for row in mat]
    q = lcm(*(a.denominator for a in (*lower, *upper)))
    low = [a.numerator * (q // a.denominator) for a in lower]
    up = [a.numerator * (q // a.denominator) for a in upper]
    # x_b starts at lower_b + s/row[b] over q; scaling q by f keeps it integral
    starts = [row[m] * q - sum(a * c for a, c in zip(row, low)) for row in mat]
    f = lcm(*(row[b] // gcd(s, row[b]) for row, b, s in zip(mat, basis, starts)))
    q, low, up = q * f, [f * a for a in low], [f * a for a in up]
    x = list(low)
    for row, b, s in zip(mat, basis, starts):
        x[b] += s * f // row[b]
    lo = [min(a, xi) for a, xi in zip(low, x)]
    hi = [max(b, xi) for b, xi in zip(up, x)]

    def rescale(c):
        nonlocal q
        q *= c
        for v in (x, lo, hi, low, up):
            v[:] = [c * a for a in v]

    def descend(k, sign, goal):
        # Pivot until sign·x_k <= sign·goal[k] or no move lowers sign·x_k.
        while x[k] > goal[k] if sign > 0 else x[k] < goal[k]:
            if k in basis:
                grad = [-sign * a for a in rows[basis.index(k)]]
            else:
                grad = [sign if j == k else 0 for j in range(m)]
            for j in range(m):
                if j in basis:
                    continue
                if grad[j] > 0 and x[j] > lo[j]:
                    step = -1
                    break
                if grad[j] < 0 and x[j] < hi[j]:
                    step = 1
                    break
            else:
                return
            # the reach is num/den over q, den > 0
            num, den, leave = hi[j] - lo[j], 1, None
            for r, b in enumerate(basis):
                rate = -step * rows[r][j]
                if rate == 0:
                    continue
                if rate > 0:
                    room = (hi[b] - x[b]) * rows[r][b]
                else:
                    room, rate = (x[b] - lo[b]) * rows[r][b], -rate
                if room * den < num * rate or (
                    room * den == num * rate
                    and leave is not None
                    and b < basis[leave]
                ):
                    num, den, leave = room, rate, r
            # Scale q by den·h: then the reach is num·h and every basic
            # change num·h·row[j]/row[b] is an integer.
            g = gcd(num, den)
            num, den = num // g, den // g
            h = lcm(
                *(row[b] // gcd(num * row[j], row[b]) for row, b in zip(rows, basis))
            )
            if den * h > 1:
                rescale(den * h)
            move = step * num * h
            x[j] += move
            for row, b in zip(rows, basis):
                x[b] -= move * row[j] // row[b]
            if leave is None:
                continue
            clear_column(rows, leave, j)
            basis[leave] = j

    for k in range(m):
        for sign, bound in ((1, up), (-1, low)):
            descend(k, sign, bound)
            if x[k] > bound[k] if sign > 0 else x[k] < bound[k]:
                return None
        lo[k], hi[k] = low[k], up[k]
    for k in reversed(range(m)):
        descend(k, 1, lo)
        lo[k] = hi[k] = x[k]
    return [Fraction(a, q) for a in x]


def rational_box_solve(vectors, target, lower, upper):
    """A rational x with sum(x_i v_i) = target and lower <= x <= upper.

    Returns the vertex that is lexicographically least with x_{m-1}
    first, down to x_0, or None when infeasible. The exact simplex of
    _lexmin finds it, and Bland's rule makes it terminate. It is also the
    vertex least on the free (non-pivot) columns of the echelon form of
    the equalities, taken last column first: a pivot row is zero left of
    its pivot and in the other pivot columns, so each pivot coordinate is
    fixed by the free coordinates to its right before its own turn comes.
    The simplex runs on integer numerators over one common denominator;
    the vertex comes back as Fractions, and _solves re-checks it on
    integers before it is returned. near_integers_solve answers with this
    vertex, without refining it, and so does refine_to_qp from a
    non-integral start with an empty prime set (see _refine).
    """
    vecs, w, lo, hi = _parse(vectors, target, lower, upper)
    if any(a > b for a, b in zip(lo, hi)):
        return None
    return _box_solve(vecs, w, lo, hi, _echelon_system(vecs, w))


def _box_solve(vecs, w, lo, hi, system):
    """rational_box_solve on parsed input with lo <= hi, and its _echelon_system."""
    if system is None:
        return None
    x = _lexmin(system, lo, hi)
    if x is None:
        return None
    if not _solves(vecs, w, x):
        raise InconsistencyError("simplex vertex lost the equalities")
    if any(not (a <= xi <= b) for a, xi, b in zip(lo, x, hi)):
        raise InconsistencyError("simplex produced an out-of-box point")
    return x


def qp_solve_exact(vectors, target, primes: PrimeSet):
    """Coefficients in the restricted ring with sum(x_i v_i) = target.

    Precondition: primes contains every circuit prime of the family, as
    prime_set and QpBoxInstance.build give. Then the ring span is the ring
    span of the pivot subfamily B of one echelon pass: any other v_j forms
    a circuit with part of B whose coefficient on v_j is a unit of the
    ring, so v_j is a ring combination of B. The target is thus in the ring
    span iff its unique coordinates over B lie in the ring; they are
    returned, with 0 on the other vectors. Returns None when the target is
    outside the ring span, and raises PreconditionError when some v_j has
    coordinates over B outside the ring, the case the precondition rules
    out. _rhs_in_ring makes both ring tests on the integer echelon rows;
    near_integers_solve and refine_to_qp use only that verdict, and each
    case1 step of _induct repeats it on the remaining family and residual
    target.
    """
    vecs, w = _parse(vectors, target)
    m = len(vecs)
    system = _echelon_system(vecs, w)
    if system is None or not _rhs_in_ring(*system, primes):
        return None
    x = [Fraction(0)] * m
    for row, col in zip(*system):
        x[col] = Fraction(row[m], row[col])
    return x


def _rhs_in_ring(rows, pivots, primes) -> bool:
    """Whether the right-hand side of echelon rows has ring coordinates.

    rows pairs with pivots as _echelon_system gives them: a row is its
    family part row[:-1], then its right-hand side row[-1]. Divided by its
    pivot entry c, a row is a row of the reduced echelon form, and a/c is
    in the ring iff the part of c coprime to the primes divides a. Every
    entry is tested before any right-hand side: an entry outside the ring
    raises PreconditionError, as the prime set then misses a circuit prime.
    """
    parts = [primes.coprime_part(row[col]) for row, col in zip(rows, pivots)]
    for row, u in zip(rows, parts):
        if u > 1 and any(a % u for a in row[:-1]):
            raise PreconditionError("prime set misses a circuit prime of the family")
    return not any(row[-1] % u for row, u in zip(rows, parts))


def refine_to_qp(inst: QpBoxInstance, x) -> tuple[tuple[Fraction, ...], RefinementTrace]:
    """Turn a rational box solution into one with ring coordinates.

    Preconditions (checked): x solves the system inside the bounds, the
    bounds live in the ring, and the target lies in the ring span. The
    output y satisfies the same equalities and bounds with every
    coordinate in the ring; the trace records each case taken.
    """
    xs = [parse_rational(v) for v in x]
    if len(xs) != inst.size:
        raise DimensionError("solution length differs from family size")
    if not _solves(inst.vectors, inst.target, xs):
        raise PreconditionError("x does not solve the system")
    for a, xi, b in zip(inst.lower, xs, inst.upper):
        if not (a <= xi <= b):
            raise PreconditionError(f"coordinate {xi} is outside [{a}, {b}]")
    system = _echelon_system(inst.vectors, inst.target)
    if not _rhs_in_ring(*system, inst.primes):
        raise PreconditionError("target is outside the ring span")
    return _refine(inst, xs, system)


def _refine(
    inst: QpBoxInstance, xs, system
) -> tuple[tuple[Fraction, ...], RefinementTrace]:
    """refine_to_qp once its preconditions hold; re-checks the output.

    system is the _echelon_system of the instance; it is not modified.
    For every prime set, xs is its own refinement, with no steps, when
    every coordinate is in the ring. Otherwise _induct runs from it, or,
    with an empty prime set, the answer is rational_box_solve's vertex,
    with one integral_fallback step. A simplex vertex always is in the
    ring: its nonbasic coordinates sit at bounds in the ring, and its
    basic ones are coordinates over a basis, in the ring by the circuit
    argument of qp_solve_exact. The checks below guard every answer.
    near_integers_solve answers with the vertex as this function would.
    """
    steps: list[RefineStep] = []
    if all(in_qp(xi, inst.primes) for xi in xs):
        y = xs
    elif inst.primes:
        y = _induct(inst, xs, steps)
    else:
        y = _lexmin(system, inst.lower, inst.upper)
        if y is None:
            raise InconsistencyError(
                "the solution set is empty although a solution was given"
            )
        steps.append(RefineStep(case="integral_fallback"))
    if not _solves(inst.vectors, inst.target, y):
        raise InconsistencyError("refined point no longer solves the system")
    for a, yi, b in zip(inst.lower, y, inst.upper):
        if not (a <= yi <= b):
            raise InconsistencyError("refined point left the box")
    for yi in y:
        if not in_qp(yi, inst.primes):
            raise InconsistencyError("refined coordinate is outside the ring")
    return tuple(y), RefinementTrace(tuple(steps))


def _induct(inst: QpBoxInstance, xs, steps: list[RefineStep]) -> list[Fraction]:
    """The constructive induction over a nonempty prime set.

    _refine calls it only from a start with a coordinate off the ring.
    Until no coordinate is active, it fixes the first active coordinate in
    the ring (case1) or, when none is, perturbs along the first circuit of
    the active subfamily until one is (case2), the circuit's support
    mapped through active, which is increasing. case2 moves only active
    coordinates, so each coordinate of the answer is the pivot_value of
    the one case1 step that fixed it.

    Each case1 step takes cur[h]·v_h off the residual target w, eliminates
    the remaining family afresh and guards that w stays in its ring span,
    as qp_solve_exact on that family would; for the empty family, that
    means w is zero. case2 leaves w alone: a circuit adds up to zero. The two moves
    cover every family: an independent one has the unique coordinates of
    w, in the ring by the guard, and a lone zero vector has the circuit
    1·v = 0.
    """
    primes = inst.primes
    active = list(range(inst.size))
    cur = list(xs)
    w = inst.target

    while active:
        h = next((i for i in active if in_qp(cur[i], primes)), None)
        if h is not None:
            w = [t - cur[h] * a for t, a in zip(w, inst.vectors[h])]
            active = [i for i in active if i != h]
            system = _echelon_system([inst.vectors[i] for i in active], w)
            if system is None or not _rhs_in_ring(*system, primes):
                raise InconsistencyError(
                    "residual target left the ring span after fixing a "
                    "ring coordinate"
                )
            steps.append(RefineStep(case="case1", pivot=h, pivot_value=cur[h]))
            continue

        # No coordinate is in the ring: perturb along a circuit. k, the lcm
        # of the off-ring denominator parts, puts every k·x_i in the ring.
        k = 1
        for i in active:
            k = lcm(k, primes.coprime_part(cur[i].denominator))
        scaled = {i: k * cur[i] for i in active}
        circuit = first_circuit([inst.vectors[i] for i in active])
        if circuit is None:
            raise InconsistencyError("no circuit inside the active set")
        circuit = Circuit(tuple(active[i] for i in circuit.support), circuit.coeffs)
        coeff = dict(zip(circuit.support, circuit.coeffs))
        h = circuit.support[0]
        r_lo = None
        r_hi = None
        for i in circuit.support:
            c = coeff[i]
            lo_b = (k * inst.lower[i] - scaled[i]) / c
            hi_b = (k * inst.upper[i] - scaled[i]) / c
            if c < 0:
                lo_b, hi_b = hi_b, lo_b
            r_lo = lo_b if r_lo is None else max(r_lo, lo_b)
            r_hi = hi_b if r_hi is None else min(r_hi, hi_b)
        if not (r_lo < 0 < r_hi):
            # Every constrained coordinate sits strictly inside its bounds
            # (it is off-ring while the bounds are in the ring).
            raise InconsistencyError("circuit shift interval has no interior")
        p = primes.smallest
        shift = None
        chosen = None
        t = 0
        while shift is None:
            denom = p**t
            for cand in (
                Fraction(ceil(cur[h] * denom), denom),
                Fraction(floor(cur[h] * denom), denom),
            ):
                r = (k * cand - scaled[h]) / coeff[h]
                if r_lo <= r <= r_hi:
                    shift = r
                    chosen = cand
                    break
            t += 1
        if not in_qp(shift, primes):
            raise InconsistencyError("circuit shift left the ring")
        for i in active:
            cur[i] = (scaled[i] + shift * coeff.get(i, 0)) / k
        steps.append(
            RefineStep(
                case="case2",
                pivot=h,
                clearing_factor=k,
                scaled_values=tuple(scaled[i] for i in active),
                circuit=circuit,
                shift=shift,
                pivot_value=chosen,
            )
        )

    return cur


@dataclass(frozen=True)
class QpSolveResult:
    solvable: bool
    reason: str | None
    solution: tuple[Fraction, ...] | None
    trace: RefinementTrace | None
    primes: PrimeSet


def near_integers_solve(vectors, target, lower, upper) -> QpSolveResult:
    """Full pipeline: ring-span check, rational feasibility, the vertex.

    Completeness comes from the refinement guarantee: when both checks
    pass there is a ring solution in the box. The simplex vertex already
    is one (see _refine), so it is the answer, with the empty trace that
    refine_to_qp would give it. _box_solve has checked its equalities and
    bounds; one ring test per coordinate guards the rest.
    """
    inst = QpBoxInstance.build(vectors, target, lower, upper)
    system = _echelon_system(inst.vectors, inst.target)
    if system is None or not _rhs_in_ring(*system, inst.primes):
        return QpSolveResult(False, "not-in-span", None, None, inst.primes)
    x = _box_solve(inst.vectors, inst.target, inst.lower, inst.upper, system)
    if x is None:
        return QpSolveResult(False, "no-rational-solution", None, None, inst.primes)
    if not all(in_qp(xi, inst.primes) for xi in x):
        raise InconsistencyError("simplex vertex is outside the ring")
    return QpSolveResult(True, None, tuple(x), RefinementTrace(()), inst.primes)
