"""Exact rational box solving and refinement into restricted denominators.

Given vectors v_1..v_m, a target w, and box bounds whose denominators
factor over the family's circuit primes P, a rational box-constrained
solution of sum(x_i v_i) = w can always be refined into one whose
coordinates all lie in the ring Q_P of P-smooth-denominator rationals.
The refinement walks the constructive induction: coordinates already in
the ring are fixed one at a time, and when no coordinate qualifies, a
single perturbation along a circuit direction lands one coordinate in the
ring without leaving the box or changing the target.

The recursion keeps the top-level prime set throughout. Shrinking to the
remaining subfamily's prime set (and rescaling bounds to compensate) can
push sub-instance bounds outside the shrunken ring and strand the
recursion, while every inductive step only needs the circuit coefficients
to stay invertible, which any superset of the family's primes guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm

from .arith import PrimeSet, in_qp, p_part, parse_rational, rref
from .certificates import Box, first_in_box
from .circuits import Circuit, circuits, prime_set_of_circuits
from .errors import (
    DimensionError,
    InconsistencyError,
    PreconditionError,
    RingMembershipError,
)


@dataclass(frozen=True)
class QpBoxInstance:
    """A box-constrained linear system with ring-compatible bounds."""

    vectors: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    primes: PrimeSet
    family_circuits: tuple[Circuit, ...]

    @classmethod
    def build(cls, vectors, target, lower, upper, primes=None) -> "QpBoxInstance":
        vecs = tuple(tuple(parse_rational(x) for x in v) for v in vectors)
        w = tuple(parse_rational(x) for x in target)
        lo = tuple(parse_rational(x) for x in lower)
        hi = tuple(parse_rational(x) for x in upper)
        m = len(vecs)
        for v in vecs:
            if len(v) != len(w):
                raise DimensionError("vector length differs from target length")
        if len(lo) != m or len(hi) != m:
            raise DimensionError("bound count differs from family size")
        for a, b in zip(lo, hi):
            if a > b:
                raise PreconditionError(f"empty bound interval [{a}, {b}]")
        circs = tuple(circuits(vecs))
        computed = prime_set_of_circuits(circs)
        if primes is None:
            primes = computed
        else:
            primes = PrimeSet(primes)
            if not primes.issuperset(computed):
                raise PreconditionError(
                    "supplied prime set misses family primes "
                    f"{sorted(set(computed) - set(primes))}"
                )
        for x in lo + hi:
            if not in_qp(x, primes):
                raise RingMembershipError(f"bound {x} is outside the ring")
        return cls(vecs, w, lo, hi, primes, circs)

    @property
    def size(self) -> int:
        return len(self.vectors)


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
    sub_primes: PrimeSet | None = None
    scale: int | None = None


@dataclass(frozen=True)
class RefinementTrace:
    steps: tuple[RefineStep, ...]


def rational_box_solve(vectors, target, lower, upper):
    """A rational x with sum(x_i v_i) = target and lower <= x <= upper.

    Exact Fourier-Motzkin elimination on the box system after Gaussian
    elimination of the equalities; variables are eliminated in ascending
    index order and values are reassembled in reverse, taking the lowest
    feasible value at each step. Returns None when infeasible.
    """
    vecs = [[parse_rational(x) for x in v] for v in vectors]
    w = [parse_rational(x) for x in target]
    lo = [parse_rational(x) for x in lower]
    hi = [parse_rational(x) for x in upper]
    m = len(vecs)
    n = len(w)
    for v in vecs:
        if len(v) != n:
            raise DimensionError("vector length differs from target length")
    if len(lo) != m or len(hi) != m:
        raise DimensionError("bound count differs from family size")
    if any(a > b for a, b in zip(lo, hi)):
        return None
    if m == 0:
        return [] if not any(w) else None

    # Gauss-Jordan elimination: coordinates are equations, family members
    # are the unknowns and the target rides along as column m. Afterward
    # every pivot variable is an affine function of the free variables.
    mat, pivot_cols = rref([[v[j] for v in vecs] + [w[j]] for j in range(n)], m)
    if any(row[m] != 0 for row in mat[len(pivot_cols):]):
        return None
    pivots = {c: r for r, c in enumerate(pivot_cols)}
    free = [c for c in range(m) if c not in pivots]
    fpos = {c: k for k, c in enumerate(free)}

    def affine(i):
        """x_i as (coeffs over free vars, constant)."""
        if i in fpos:
            coeffs = [Fraction(0)] * len(free)
            coeffs[fpos[i]] = Fraction(1)
            return coeffs, Fraction(0)
        r = pivots[i]
        return [-mat[r][f] for f in free], mat[r][m]

    # Inequality rows (coeffs, const) meaning sum(coeffs·y) <= const.
    rows = []
    for i in range(m):
        coeffs, const = affine(i)
        rows.append((coeffs, hi[i] - const))
        rows.append(([-c for c in coeffs], const - lo[i]))

    stages = [rows]
    for k in range(len(free)):
        cur = stages[-1]
        nxt = []
        pos_rows = [r for r in cur if r[0][k] > 0]
        neg_rows = [r for r in cur if r[0][k] < 0]
        for coeffs, const in cur:
            if coeffs[k] == 0:
                nxt.append((coeffs, const))
        for pc, pconst in pos_rows:
            for nc, nconst in neg_rows:
                # y_k <= pconst/pc_k and y_k >= nconst/nc_k combine.
                scale_p = pc[k]
                scale_n = -nc[k]
                coeffs = [
                    scale_n * pc[j] + scale_p * nc[j] for j in range(len(free))
                ]
                nxt.append((coeffs, scale_n * pconst + scale_p * nconst))
        stages.append(nxt)
    for coeffs, const in stages[-1]:
        if const < 0:
            return None

    values: list[Fraction] = [Fraction(0)] * len(free)
    for k in reversed(range(len(free))):
        best_lo = None
        best_hi = None
        for coeffs, const in stages[k]:
            if coeffs[k] == 0:
                continue
            rest = sum(
                coeffs[j] * values[j] for j in range(k + 1, len(free))
            )
            bound = (const - rest) / coeffs[k]
            if coeffs[k] > 0:
                best_hi = bound if best_hi is None else min(best_hi, bound)
            else:
                best_lo = bound if best_lo is None else max(best_lo, bound)
        if best_lo is not None:
            values[k] = best_lo
        elif best_hi is not None:
            values[k] = best_hi
        else:
            values[k] = Fraction(0)

    x = []
    for i in range(m):
        coeffs, const = affine(i)
        x.append(sum(c * y for c, y in zip(coeffs, values)) + const)
    for j in range(n):
        if sum(x[i] * vecs[i][j] for i in range(m)) != w[j]:
            raise InconsistencyError("eliminated system lost the equalities")
    if any(not (a <= xi <= b) for a, xi, b in zip(lo, x, hi)):
        raise InconsistencyError("elimination produced an out-of-box point")
    return x


def qp_solve_exact(vectors, target, primes: PrimeSet):
    """Coefficients in the restricted ring with sum(x_i v_i) = target.

    Precondition: primes contains every circuit prime of the family, as
    prime_set and QpBoxInstance.build give. Then the ring span is the ring
    span of the pivot subfamily B of one rref pass: any other v_j forms a
    circuit with part of B whose coefficient on v_j is a unit of the ring,
    so v_j is a ring combination of B. The target is thus in the ring span
    iff its unique coordinates over B lie in the ring; they are returned,
    with 0 on the other vectors. Returns None when the target is outside
    the ring span, and raises PreconditionError when some v_j has
    coordinates over B outside the ring, the case the precondition rules
    out.
    """
    vecs = [[parse_rational(x) for x in v] for v in vectors]
    w = [parse_rational(x) for x in target]
    n = len(w)
    for v in vecs:
        if len(v) != n:
            raise DimensionError("vector length differs from target length")
    m = len(vecs)
    mat, pivot_cols = rref([[v[j] for v in vecs] + [w[j]] for j in range(n)], m)
    rank = len(pivot_cols)
    if any(row[m] != 0 for row in mat[rank:]):
        return None
    if not all(in_qp(a, primes) for row in mat[:rank] for a in row[:m]):
        raise PreconditionError("prime set misses a circuit prime of the family")
    x = [Fraction(0)] * m
    for row, col in zip(mat, pivot_cols):
        x[col] = row[m]
    return x if all(in_qp(xi, primes) for xi in x) else None


def _integral_fallback(inst: QpBoxInstance, steps: list[RefineStep]):
    """Empty prime set: the ring is the integers, so search the box.

    Returns the lexicographically first integer point of the (integral)
    bounds that solves the equalities, under the oracle's point cap. The
    equalities are scaled by the lcm of every denominator so the scan runs
    on integers, with one row per coordinate and one column per vector.
    """
    scale = lcm(
        *(x.denominator for v in inst.vectors for x in v),
        *(x.denominator for x in inst.target),
    )
    mat = [[int(v[j] * scale) for v in inst.vectors] for j in range(len(inst.target))]
    rhs = [int(x * scale) for x in inst.target]

    def solves(x):
        return all(sum(a * b for a, b in zip(row, x)) == r for row, r in zip(mat, rhs))

    x = first_in_box(Box.of(inst.lower, inst.upper), solves)
    if x is None:
        raise InconsistencyError(
            "an integral solution must exist once the rational and span "
            "checks pass, but the box scan found none"
        )
    steps.append(RefineStep(case="integral_fallback"))
    return [Fraction(xi) for xi in x]


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
    for j in range(len(inst.target)):
        total = sum(xs[i] * inst.vectors[i][j] for i in range(inst.size))
        if total != inst.target[j]:
            raise PreconditionError("x does not solve the system")
    for a, xi, b in zip(inst.lower, xs, inst.upper):
        if not (a <= xi <= b):
            raise PreconditionError(f"coordinate {xi} is outside [{a}, {b}]")
    if qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
        raise PreconditionError("target is outside the ring span")

    steps: list[RefineStep] = []
    if not inst.primes:
        y = _integral_fallback(inst, steps)
        return tuple(y), RefinementTrace(tuple(steps))

    primes = inst.primes
    result: dict[int, Fraction] = {}
    active = list(range(inst.size))
    w = list(inst.target)
    cur = dict(enumerate(xs))

    while active:
        if len(active) == 1:
            i = active[0]
            if all(v == 0 for v in inst.vectors[i]):
                if any(w):
                    raise InconsistencyError("nonzero target over a zero vector")
                result[i] = inst.lower[i]
                steps.append(RefineStep(case="base", pivot=i))
            else:
                if not in_qp(cur[i], primes):
                    raise InconsistencyError(
                        "forced single coefficient is outside the ring"
                    )
                result[i] = cur[i]
                steps.append(RefineStep(case="base", pivot=i))
            break

        rows = [inst.vectors[i] for i in active]
        if len(rref(rows, len(inst.target))[1]) == len(active):
            # Independent subfamily: the coefficients are forced, and ring
            # span membership forces them into the ring.
            for i in active:
                if not in_qp(cur[i], primes):
                    raise InconsistencyError(
                        "independent coefficients are outside the ring"
                    )
                result[i] = cur[i]
            steps.append(RefineStep(case="independent"))
            break

        ring_members = [i for i in active if in_qp(cur[i], primes)]
        if ring_members:
            h = ring_members[0]
            remaining = [i for i in active if i != h]
            w_next = [
                w[j] - cur[h] * inst.vectors[h][j] for j in range(len(w))
            ]
            check = qp_solve_exact(
                [inst.vectors[i] for i in remaining], w_next, primes
            )
            if check is None:
                raise InconsistencyError(
                    "residual target left the ring span after fixing a "
                    "ring coordinate"
                )
            sub_primes = prime_set_of_circuits(
                [
                    c
                    for c in inst.family_circuits
                    if set(c.support) <= set(remaining)
                ]
            )
            result[h] = cur[h]
            steps.append(
                RefineStep(
                    case="case1",
                    pivot=h,
                    pivot_value=cur[h],
                    sub_primes=sub_primes,
                    scale=1,
                )
            )
            active = remaining
            w = w_next
            continue

        # No coordinate is in the ring: perturb along a circuit. Clear the
        # off-ring denominator parts with the smallest valid factor.
        k = 1
        for i in active:
            k = lcm(k, p_part(cur[i], primes)[1])
        scaled = {i: k * cur[i] for i in active}
        for i in active:
            if not in_qp(scaled[i], primes):
                raise InconsistencyError("clearing factor failed")
        circuit = next(
            (
                c
                for c in inst.family_circuits
                if set(c.support) <= set(active)
            ),
            None,
        )
        if circuit is None:
            raise InconsistencyError("dependent subfamily has no circuit")
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
        if cur[h] != chosen:
            raise InconsistencyError("pivot did not land on the chosen value")
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

    y = tuple(result[i] for i in range(inst.size))
    for j in range(len(inst.target)):
        total = sum(y[i] * inst.vectors[i][j] for i in range(inst.size))
        if total != inst.target[j]:
            raise InconsistencyError("refined point no longer solves the system")
    for a, yi, b in zip(inst.lower, y, inst.upper):
        if not (a <= yi <= b):
            raise InconsistencyError("refined point left the box")
    for yi in y:
        if not in_qp(yi, inst.primes):
            raise InconsistencyError("refined coordinate is outside the ring")
    return y, RefinementTrace(tuple(steps))


@dataclass(frozen=True)
class QpSolveResult:
    solvable: bool
    reason: str | None
    solution: tuple[Fraction, ...] | None
    trace: RefinementTrace | None
    primes: PrimeSet


def near_integers_solve(vectors, target, lower, upper, primes=None) -> QpSolveResult:
    """Full pipeline: ring-span check, rational feasibility, refinement.

    Completeness comes from the refinement guarantee: when both checks
    pass there is a ring solution in the box, and one is produced.
    """
    inst = QpBoxInstance.build(vectors, target, lower, upper, primes)
    span = qp_solve_exact(inst.vectors, inst.target, inst.primes)
    if span is None:
        return QpSolveResult(False, "not-in-span", None, None, inst.primes)
    x = rational_box_solve(inst.vectors, inst.target, inst.lower, inst.upper)
    if x is None:
        return QpSolveResult(False, "no-rational-solution", None, None, inst.primes)
    y, trace = refine_to_qp(inst, x)
    return QpSolveResult(True, None, y, trace, inst.primes)
