"""Elementary integral relations (circuits) of a finite vector family.

A circuit is a minimal-support integer relation sum(c_i * v_i) = 0 with
coprime coefficients; each circuit support carries exactly one primitive
relation up to a global sign. The prime set of a family collects every
prime dividing some circuit coefficient; it controls which denominators
the restricted-ring solver may use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .arith import PrimeSet, factorize, parse_rational, rref
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


def _kernel_if_one_dimensional(columns: list[list[Fraction]]):
    """The kernel vector when the column kernel has dimension exactly 1."""
    k = len(columns)
    n = len(columns[0]) if columns else 0
    mat, pivots = rref([[col[i] for col in columns] for i in range(n)], k)
    if k - len(pivots) != 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    vec = [Fraction(0)] * k
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -mat[r][free]
    return vec


def circuits(vectors) -> list[Circuit]:
    """All circuits of the family, ordered by support.

    Denominators are cleared per vector for the kernel computation and the
    coefficients are mapped back to the original (possibly rational)
    vectors before being made primitive. A subset is a circuit support
    exactly when its kernel is one-dimensional and fully supported; circuit
    supports have at most rank+1 elements, which provably bounds the
    subset search. A zero vector yields the singleton relation 1·v = 0.
    """
    rows = _as_fraction_rows(vectors)
    m = len(rows)
    if m > MAX_FAMILY_SIZE:
        raise ResourceLimitError(f"family size {m} exceeds {MAX_FAMILY_SIZE}")
    scales = [lcm(*(x.denominator for x in row)) if row else 1 for row in rows]
    cleared = [
        [int(x * s) for x in row] for row, s in zip(rows, scales)
    ]
    cols = [[Fraction(x) for x in row] for row in cleared]
    rank = len(rref(cols, len(cols[0]))[1]) if cols else 0
    if rank > MAX_FAMILY_RANK:
        raise ResourceLimitError(f"family rank {rank} exceeds {MAX_FAMILY_RANK}")
    out = []
    for size in range(1, min(m, rank + 1) + 1):
        for subset in combinations(range(m), size):
            kern = _kernel_if_one_dimensional([cols[i] for i in subset])
            if kern is None or any(x == 0 for x in kern):
                continue
            # kernel of the cleared vectors; the relation on the originals
            # picks up each vector's clearing factor.
            raw = [x * scales[i] for x, i in zip(kern, subset)]
            mult = lcm(*(x.denominator for x in raw))
            ints = [int(x * mult) for x in raw]
            g = 0
            for x in ints:
                g = gcd(g, x)
            ints = [x // g for x in ints]
            if ints[0] < 0:
                ints = [-x for x in ints]
            out.append(Circuit(subset, tuple(ints)))
    out.sort(key=lambda c: c.support)
    return out


def prime_set(vectors) -> PrimeSet:
    """Primes dividing some coefficient of some circuit of the family."""
    return prime_set_of_circuits(circuits(vectors))


def prime_set_of_circuits(circuit_list) -> PrimeSet:
    primes: set[int] = set()
    for c in circuit_list:
        for x in c.coeffs:
            if abs(x) > 1:
                primes.update(factorize(x))
    return PrimeSet(primes)
