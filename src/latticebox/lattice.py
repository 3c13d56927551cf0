"""Subgroups of Z^n in canonical echelon form, with exact membership.

A lattice is stored as a row basis in Hermite-style echelon form: pivots
are positive, strictly right-moving, zero below, and reduced (into
[0, pivot)) above. That form is unique per subgroup, so equal subgroups
compare equal, and membership is read off the basis pivot by pivot.
"""

from __future__ import annotations

from math import gcd

from .errors import DimensionError


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
        if r == len(mat):
            break
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

