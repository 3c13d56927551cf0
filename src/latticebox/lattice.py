"""Subgroups of Z^n in canonical echelon form, with exact integer solving.

A lattice is stored as a row basis in Hermite-style echelon form: pivots
are positive, strictly right-moving, zero below, and reduced (into
[0, pivot)) above. That form is unique per subgroup, so equal subgroups
compare equal. Smith normal form with tracked unimodular transforms backs
only the ring-span solve of localized.qp_solve_exact.
"""

from __future__ import annotations

from math import gcd

from .errors import DimensionError

Matrix = list[list[int]]


def _identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _echelon_rows(n: int, gens) -> list[list[int]]:
    """Canonical row echelon basis of the span of gens (rows of length n)."""
    mat = []
    for g in gens:
        row = [int(x) for x in g]
        if len(row) != n:
            raise DimensionError(f"generator of length {len(row)}, expected {n}")
        if any(row):
            mat.append(row)
    r = 0
    for col in range(n):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][col]), i))
            if i0 != r:
                mat[r], mat[i0] = mat[i0], mat[r]
            p = mat[r][col]
            clean = True
            for i in range(r + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // p
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][col] != 0:
                        clean = False
            if clean:
                break
        if r < len(mat) and mat[r][col] != 0:
            if mat[r][col] < 0:
                mat[r] = [-x for x in mat[r]]
            p = mat[r][col]
            for i in range(r):
                q = mat[i][col] // p
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return mat[:r]


class Lattice:
    """A subgroup of Z^n held as its canonical echelon row basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, generators=()):
        if ambient_dim < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        rows = _echelon_rows(ambient_dim, generators)
        self.ambient_dim = ambient_dim
        self.basis: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in rows)
        self.pivots: tuple[int, ...] = tuple(
            next(j for j, x in enumerate(row) if x != 0) for row in self.basis
        )

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Lattice({self.ambient_dim}, {[list(r) for r in self.basis]})"

    def _check_dim(self, w) -> list[int]:
        vec = [int(x) for x in w]
        if len(vec) != self.ambient_dim:
            raise DimensionError(
                f"vector of length {len(vec)}, expected {self.ambient_dim}"
            )
        return vec

    def member(self, w) -> bool:
        """Whether w is an integral combination of the basis rows."""
        return self.solve_integral(w) is not None

    def solve_integral(self, w):
        """Coefficients expressing w in the basis, or None when w is outside."""
        t = self._check_dim(w)
        coeffs = []
        for row, p in zip(self.basis, self.pivots):
            if t[p] % row[p] != 0:
                return None
            q = t[p] // row[p]
            coeffs.append(q)
            if q:
                t = [x - q * y for x, y in zip(t, row)]
        if any(t):
            return None
        return tuple(coeffs)

    def projection_gcds(self) -> tuple[int, ...]:
        """Per-coordinate gcd of the basis (0 where every member vanishes)."""
        out = []
        for j in range(self.ambient_dim):
            g = 0
            for row in self.basis:
                g = gcd(g, row[j])
            out.append(g)
        return tuple(out)


def smith_transforms(mat: Matrix):
    """Reduce mat to Smith form D, tracking the unimodular transforms.

    Returns (p, d, q) with p·mat·q == d; d is (rectangular) diagonal with
    nonnegative entries and each diagonal entry dividing the next.
    """
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    p = _identity(nrows)
    q = _identity(ncols)

    def row_swap(i, j):
        for m in (a, p):
            m[i], m[j] = m[j], m[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        for m in (a, p):
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]

    def row_negate(i):
        for m in (a, p):
            m[i] = [-x for x in m[i]]

    def col_swap(i, j):
        for row in (*a, *q):
            row[i], row[j] = row[j], row[i]

    def col_addmul(j, i, c):
        # col_j += c * col_i
        if c == 0:
            return
        for row in (*a, *q):
            row[j] += c * row[i]

    t = 0
    while t < min(nrows, ncols):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            # clear column t below the pivot
            restart = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    row_addmul(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    col_addmul(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the remaining submatrix
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    return p, a, q
