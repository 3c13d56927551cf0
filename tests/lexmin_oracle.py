"""Reference bounded-variable simplex over Fraction, for tests only.

The package keeps every coordinate and bound of its simplex as an integer
numerator over one shared denominator (localized._lexmin); this version,
which computes with Fraction values point by point, is the oracle the
tests compare it against, pivot for pivot.
"""

from latticebox.arith import eliminate


def lexmin(system, lower, upper):
    """The lexicographic minimum of {x : sum(x_i v_i) = target, lower <= x <= upper}.

    system is localized._echelon_system(vectors, target), consistent; it
    is not modified. Minimizes x_{m-1} first, then x_{m-2}, down to x_0,
    fixing each at its minimum before the next; returns None when the set
    is empty. This is an exact bounded-variable simplex on integer rows,
    each scaled to a positive basic entry that ratios and updates divide
    by; a basis exchange is one arith.eliminate per row. The echelon form
    of the equalities gives the first basis, with every nonbasic variable
    at its lower bound.
    Phase 1 widens the bounds of each basic variable that starts outside
    them to take in its start value, then drives those variables back one
    at a time; one that cannot get back proves the set empty, because the
    widened set contains it. Every pivot follows Bland's rule: the lowest
    improving index enters, and ratio-test ties go to the lowest index. So
    no basis repeats and every descent ends (Bland 1977). Every variable is
    boxed, so no descent is unbounded.
    """
    m = len(lower)
    mat, pivots = system
    basis = list(pivots)
    x = list(lower)
    for row, b in zip(mat, basis):
        x[b] += (row[m] - sum(a * xi for a, xi in zip(row, lower))) / row[b]
    rows = [row[:m] for row in mat[: len(basis)]]
    where = {b: r for r, b in enumerate(basis)}
    lo = [min(a, xi) for a, xi in zip(lower, x)]
    hi = [max(b, xi) for b, xi in zip(upper, x)]

    def descend(k, sign, goal):
        # Pivot until sign·x_k <= sign·goal or no move lowers sign·x_k.
        while x[k] > goal if sign > 0 else x[k] < goal:
            if k in where:
                grad = [-sign * a for a in rows[where[k]]]
            else:
                grad = [sign if j == k else 0 for j in range(m)]
            for j in range(m):
                if j in where:
                    continue
                if grad[j] > 0 and x[j] > lo[j]:
                    step = -1
                    break
                if grad[j] < 0 and x[j] < hi[j]:
                    step = 1
                    break
            else:
                return
            reach, leave = hi[j] - lo[j], None
            for r, b in enumerate(basis):
                rate = -step * rows[r][j]
                if rate == 0:
                    continue
                room = ((hi[b] if rate > 0 else lo[b]) - x[b]) * rows[r][b] / rate
                if room < reach or (
                    room == reach and leave is not None and b < basis[leave]
                ):
                    reach, leave = room, r
            x[j] += step * reach
            for r, b in enumerate(basis):
                x[b] -= step * reach * rows[r][j] / rows[r][b]
            if leave is None:
                continue
            if rows[leave][j] < 0:
                rows[leave] = [-a for a in rows[leave]]
            for r, row in enumerate(rows):
                if r != leave and row[j]:
                    rows[r] = eliminate(row, rows[leave], j)
            del where[basis[leave]]
            basis[leave] = j
            where[j] = leave

    for k in range(m):
        for sign, bound in ((1, upper[k]), (-1, lower[k])):
            descend(k, sign, bound)
            if x[k] > bound if sign > 0 else x[k] < bound:
                return None
        lo[k], hi[k] = lower[k], upper[k]
    for k in reversed(range(m)):
        descend(k, 1, lo[k])
        lo[k] = hi[k] = x[k]
    return x
