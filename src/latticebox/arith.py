"""Exact integer and rational primitives.

Sign-correct floor/ceiling division, trial-division factorization and a
Miller-Rabin primality check for desk-scale integers, membership tests for
rings of rationals whose reduced denominators factor over a fixed finite
set of primes, and exact elimination over the rationals.

Every rational elimination goes through eliminate, one fraction-free integer
row operation divided by its content (after Bareiss 1968), and every pivot
step through clear_column, which echelon, the simplex and the refinement
share. The Hermite form behind Lattice (lattice._echelon_rows) stays apart,
as it needs unimodular row steps and eliminate scales the row it reduces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import index

from .errors import ResourceLimitError

# Trial division is the documented factorization method; past this limit it
# would need sqrt(n) > 10^6 divisions per call.
FACTOR_LIMIT = 10**12

_MR_BASES = (2, 3, 5, 7, 11, 13, 17)


def floor_div(a: int, m: int) -> int:
    """Greatest integer <= a/m, for either sign of m (never truncation)."""
    # Python's // already rounds toward -inf for any sign combination.
    return a // m


def ceil_div(a: int, m: int) -> int:
    """Least integer >= a/m; satisfies ceil_div(a, m) == -floor_div(-a, m)."""
    return -((-a) // m)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check.

    The bases 2 through 17 decide every n below 3.4·10^14 exactly (Jaeschke
    1993), which covers FACTOR_LIMIT. n beyond FACTOR_LIMIT raises the
    ResourceLimitError of factorize: a prime set is only ever made of
    factors that factorize can find.
    """
    if n < 2:
        return False
    if n > FACTOR_LIMIT:
        raise ResourceLimitError(f"factorize: |n| exceeds {FACTOR_LIMIT}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[int]:
    """Prime factors of |n| with multiplicity, ascending.

    factorize(1) == [] and the product of the result is always |n|.
    Rejects n == 0 and |n| beyond FACTOR_LIMIT.
    """
    if n == 0:
        raise ValueError("factorize: zero has no factorization")
    n = abs(n)
    if n > FACTOR_LIMIT:
        raise ResourceLimitError(f"factorize: |n| exceeds {FACTOR_LIMIT}")
    out: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            out.append(p)
            n //= p
    f, top = 5, isqrt(n)
    while f <= top:
        if n % f == 0 or n % (f + 2) == 0:
            for p in (f, f + 2):
                while n % p == 0:
                    out.append(p)
                    n //= p
            top = isqrt(n)
        f += 6
    if n > 1:
        out.append(n)
    return out


class PrimeSet:
    """Immutable ascending set of primes (allowed denominator factors).

    Ring membership is tested on integers against the product of the set,
    kept with it, so a test costs a few gcds, not a division per prime.
    """

    __slots__ = ("primes", "_product")

    def __init__(self, primes=()):
        seen = sorted({index(p) for p in primes})
        for p in seen:
            if not is_prime(p):
                raise ValueError(f"PrimeSet: {p} is not prime")
        self.primes: tuple[int, ...] = tuple(seen)
        # A product tree keeps the multiplications balanced: one running
        # product would cost quadratic time on tens of thousands of primes.
        level = list(seen) or [1]
        while len(level) > 1:
            level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        self._product = level[0]

    def __contains__(self, p) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __bool__(self) -> bool:
        return bool(self.primes)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeSet) and self.primes == other.primes

    def __hash__(self) -> int:
        return hash(("PrimeSet", self.primes))

    def __repr__(self) -> str:
        return f"PrimeSet({list(self.primes)!r})"

    @property
    def smallest(self) -> int:
        if not self.primes:
            raise ValueError("PrimeSet is empty")
        return self.primes[0]

    def coprime_part(self, n: int) -> int:
        """The largest divisor of |n| that no prime of the set divides.

        So a/d lies in the ring iff coprime_part(d) divides a: the reduced
        denominator d/gcd(a, d) is smooth over the set exactly then.
        """
        n = abs(n)
        if n == 0:
            raise ValueError("coprime_part: zero has no coprime part")
        if n == 1:
            return 1
        # g holds one copy of each prime of the set still dividing n.
        g = gcd(n, self._product)
        while g > 1:
            n //= g
            g = gcd(n, g)
        return n


def in_qp(x, primes: PrimeSet) -> bool:
    """True iff every prime factor of the reduced denominator lies in primes.

    Integers always qualify; with an empty prime set the ring is the integers.
    x is read exactly by parse_rational, so a float raises ValueError: the
    binary 0.1 has denominator 2^55, not 10.
    """
    return primes.coprime_part(parse_rational(x).denominator) == 1


def eliminate(row, pivot_row, col):
    """Clear row[col] with pivot_row by one integer row operation.

    The result is |a|·row - sign(a)·x·pivot_row, with a = pivot_row[col] and
    x = row[col] first divided by their gcd, then divided by the gcd of its
    own entries: row keeps its sign, and the integers stay small.
    """
    a, x = pivot_row[col], row[col]
    g = gcd(a, x) if a > 0 else -gcd(a, x)
    a, x = a // g, x // g
    out = [a * u - x * v for u, v in zip(row, pivot_row)]
    g = gcd(*out)
    return [u // g for u in out] if g > 1 else out


def clear_column(rows, r: int, col: int) -> None:
    """In place: make rows[r][col] positive, then eliminate col from other rows."""
    if rows[r][col] < 0:
        rows[r] = [-u for u in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[col]:
            rows[i] = eliminate(row, rows[r], col)


def echelon(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan form of rational rows, and its pivot columns.

    The input rows are copied and cleared of denominators. Only the first
    ncols columns are pivoted on, so columns beyond them (a right-hand side)
    ride along. Each pivot is a row swap and one clear_column. Pivot row r
    holds a positive entry at pivots[r] and every other row a 0 there;
    divided by that entry it is row r of the reduced row echelon form.
    """
    mat = []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (s // x.denominator) for x in row])
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        clear_column(mat, rank, col)
        pivots.append(col)
    return mat, pivots


def parse_rational(value) -> Fraction:
    """Parse a JSON-style number: int, "p", "p/q" or "p.d" (exact, reduced).

    A Fraction comes back as it is: Fractions are immutable and reduced.
    ValueError on exponent notation ("1e30000000" has 10^30000000 digits),
    "_" (Fraction reads it only from 3.11 on) and non-ASCII digits.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not read: {value!r}")
        if "_" in value or not value.isascii():
            raise ValueError(f"not a plain ASCII number: {value!r}")
        return Fraction(value.strip())
    raise ValueError(f"not a rational: {value!r}")


def format_rational(x) -> str:
    """Render reduced "p/q", or plain "p" when the denominator is 1."""
    return str(Fraction(x))


def parse_int(value) -> int:
    """Parse a JSON-style integer: int or ASCII decimal string."""
    if isinstance(value, bool):
        raise ValueError(f"not an integer: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if "_" in value or not value.isascii():
            raise ValueError(f"not a plain ASCII number: {value!r}")
        return int(value.strip())
    raise ValueError(f"not an integer: {value!r}")
