"""An oracle for prime_set that never enumerates circuits.

Take r linearly independent coordinate rows of the integer family, r its
rank. By Cramer's rule the coefficients of the circuit on a support S are
the maximal minors over the adjacent bases (S minus one element, plus a
fixed complement), divided by their gcd. The basis-exchange graph is
connected, so a prime p divides some circuit coefficient exactly when the
nonzero maximal minors do not all share one p-adic valuation.
"""

import random
from itertools import combinations

import sympy

from latticebox import prime_set


def minor_primes(vecs):
    cols = sympy.Matrix(vecs).T
    rows = []
    for i in range(cols.rows):
        if cols.extract(rows + [i], list(range(cols.cols))).rank() > len(rows):
            rows.append(i)
    minors = [
        int(cols.extract(rows, list(basis)).det())
        for basis in combinations(range(cols.cols), len(rows))
    ]
    nonzero = [d for d in minors if d != 0]
    candidates = set()
    for d in nonzero:
        candidates.update(sympy.factorint(abs(d)))
    return sorted(
        p
        for p in candidates
        if len({sympy.multiplicity(p, d) for d in nonzero}) > 1
    )


def test_minor_oracle_examples():
    assert minor_primes([(2, 0), (3, 0), (0, 1)]) == [2, 3]
    assert minor_primes([(1, 0), (0, 1), (1, 1)]) == []
    assert minor_primes([(0, 0), (1, 2)]) == []


def test_prime_set_matches_maximal_minors():
    rng = random.Random(4493)
    nonempty = 0
    for _ in range(400):
        m = rng.randint(1, 6)
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        expected = minor_primes(vecs)
        nonempty += bool(expected)
        assert list(prime_set(vecs)) == expected, vecs
    assert nonempty == 223
