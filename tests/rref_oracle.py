"""Reference Gauss-Jordan elimination over Fraction, for tests only.

The package eliminates on integer rows (arith.echelon); this textbook
version is the oracle the tests compare it against.
"""

from fractions import Fraction


def rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of Fraction rows, and its pivot columns.

    Only the first ncols columns are pivoted on, so columns beyond them (a
    right-hand side) ride along. Pivot row r holds a 1 at pivots[r] and
    every other row a 0 there; the input rows are not modified.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots
