"""Elementary integral relations (circuits) of a finite vector family.

A circuit is a minimal-support integer relation sum(c_i * v_i) = 0 with
coprime coefficients; each circuit support carries exactly one primitive
relation up to a global sign. The prime set of a family collects every
prime dividing some circuit coefficient; it controls which denominators
the restricted-ring solver may use.

Circuits are found by a depth-first walk over the independent subsets of
the family, taken in increasing index order, with fraction-free integer
elimination (no Fraction arithmetic). Each step reduces a vector against
the rows already chosen by one integer row operation (arith.eliminate),
so a node costs one row operation per remaining candidate. A dependent
set is never extended: its supersets hold no new circuit. The walk yields
each circuit as it is found, and a consumer that stops early stops the
walk: circuits() lists them all, first_circuit() takes only the first, and
prime_set() keeps only the distinct coefficient values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import PrimeSet, echelon, eliminate, factorize, parse_rational
from .errors import DimensionError, ResourceLimitError

MAX_FAMILY_SIZE = 20
MAX_FAMILY_RANK = 8


@dataclass(frozen=True)
class Circuit:
    """Support indices (0-based, ascending) with the primitive coefficients.

    The relation sum over the support of coeffs[k] * vectors[support[k]]
    is exactly zero; coefficients are coprime, all nonzero, and the first
    one is positive.
    """

    support: tuple[int, ...]
    coeffs: tuple[int, ...]


def _as_fraction_rows(vectors) -> list[list[Fraction]]:
    rows = [[parse_rational(x) for x in v] for v in vectors]
    if rows:
        n = len(rows[0])
        for r in rows:
            if len(r) != n:
                raise DimensionError("family vectors differ in length")
    return rows


def _pivot(row, n):
    """The first nonzero column among the first n, or None."""
    return next((c for c in range(n) if row[c]), None)


def _extend(pending, at, n):
    """The candidates after pending[at], reduced against its row.

    A candidate whose row is already zero is dropped: the chosen set plus
    it is dependent, so no circuit contains that set properly.
    """
    _, row, col = pending[at]
    out = []
    for k, r, c in pending[at + 1 :]:
        if c is not None:
            r = eliminate(r, row, col)
            out.append((k, r, _pivot(r, n)))
    return out


def _walk(vectors):
    """Yield each circuit of the family as (support, coeffs), in support order.

    The walk takes candidates in increasing index order and finishes each
    subtree before the next one, so supports come out sorted with no sort.
    It is a generator: each circuit is yielded as it is found, and a
    consumer that stops early stops the walk there.

    Every vector is cleared by one denominator, the lcm of all the family's
    denominators: a uniform scale changes no relation. The search runs on
    integer rows: the cleared vector followed by a combination part, at
    first the unit vector of its index.

    It is a depth-first walk over the independent sets S, each taken in
    increasing index order. A node holds, for every candidate j > max(S),
    j's row reduced against the rows of S's members, one integer row
    operation per member; so each row is an integer combination of S and
    j, and its combination part says which. When j's vector part is
    nonzero, S + {j} is independent and the walk descends into it. When it
    is zero, the combination part is the only relation on S + {j} up to
    scale, as S is independent and j's coefficient is never zero. Then
    S + {j} is a circuit exactly when every coefficient is nonzero: a zero
    one leaves a dependent proper subset, and a dependent proper subset
    would give a second relation. Dependent sets are never extended, as no
    circuit contains one properly. Every circuit is found exactly once:
    its sorted proper prefixes are independent, so the walk reaches the
    longest of them once and tests the last index there.

    The input is parsed and the size limit checked at the walk's first
    step, the rank limit on its first descent: that descent takes the
    first independent candidate at every level, so it reaches depth rank
    before it backtracks, after at most m·(MAX_FAMILY_RANK + 1) row
    operations. Only a refusal runs echelon, on the pending rows, for the
    exact rank in its message. Each relation is made primitive with the
    first coefficient positive. A zero vector yields the singleton
    relation 1·v = 0.
    """
    rows = _as_fraction_rows(vectors)
    m = len(rows)
    if m > MAX_FAMILY_SIZE:
        raise ResourceLimitError(f"family size {m} exceeds {MAX_FAMILY_SIZE}")
    n = len(rows[0]) if rows else 0
    s = lcm(*(x.denominator for row in rows for x in row))
    root = []
    for j, row in enumerate(rows):
        r = [x.numerator * (s // x.denominator) for x in row]
        r += [int(i == j) for i in range(m)]
        root.append((j, r, _pivot(r, n)))

    def walk(chosen, pending):
        if len(chosen) > MAX_FAMILY_RANK:
            # the pending rows are zero on the chosen pivots: their ranks add
            rank = len(chosen) + len(echelon([r[:n] for _, r, _ in pending], n)[1])
            raise ResourceLimitError(f"family rank {rank} exceeds {MAX_FAMILY_RANK}")
        for at, (j, row, col) in enumerate(pending):
            if col is not None:
                yield from walk(chosen + (j,), _extend(pending, at, n))
                continue
            support = chosen + (j,)
            raw = [row[n + i] for i in support]
            if 0 in raw:
                continue
            g = gcd(*raw)
            sign = -1 if raw[0] < 0 else 1
            yield support, tuple(sign * x // g for x in raw)

    yield from walk((), root)


def circuits(vectors) -> list[Circuit]:
    """All circuits of the family, ordered by support (see _walk)."""
    return [Circuit(support, coeffs) for support, coeffs in _walk(vectors)]


def first_circuit(vectors) -> Circuit | None:
    """The first circuit of circuits(vectors), or None; the walk stops there."""
    found = next(_walk(vectors), None)
    return Circuit(*found) if found else None


def prime_set(vectors) -> PrimeSet:
    """Primes dividing some coefficient of some circuit of the family.

    The walk yields each circuit's coefficients and only their distinct
    absolute values are kept, not the circuits.
    """
    values: set[int] = set()
    for _, coeffs in _walk(vectors):
        values.update(map(abs, coeffs))
    return _prime_set_of_values(values)


def prime_set_of_circuits(circuit_list) -> PrimeSet:
    """Primes dividing some coefficient of the listed circuits."""
    return _prime_set_of_values({abs(x) for c in circuit_list for x in c.coeffs})


def _prime_set_of_values(values) -> PrimeSet:
    """Primes dividing some of the values; each value is factorized once."""
    primes: set[int] = set()
    for x in values:
        if x > 1:
            primes.update(factorize(x))
    return PrimeSet(primes)
