"""
Extracting an explicit lattice point from a feasible box
========================================================

The same recursion that proves the certificate equivalence also produces
a witness: solve the reduced instance for the image lattice, lift the
image point back to a lattice member, and shift it along the divisor
vector by the smallest feasible multiplier.

The lift needs no linear algebra. Each reduced coordinate is a quotient
difference y_i/v_i - y_j/v_j (or a zero coordinate passed through), so
fixing y = 0 at the first nonzero coordinate of v reads every other
coordinate straight off the image point. That point differs from any
other preimage by a multiple of v, which the shift absorbs.
"""

import random

from latticebox import (
    Box,
    Lattice,
    brute_force_solve,
    certify,
    solve_box,
)

# rank-1 lattice with mixed signs and a forced-zero coordinate
line = Lattice(3, [(2, -3, 0)])
chain = certify(line)
box = Box.of((0, -6, -1), (4, 0, 5))
print("witness on the line:", solve_box(chain, box))

# rank-2 lattice: the witness goes through the image lattice and back
lat = Lattice(2, [(2, 4), (0, 8)])
chain = certify(lat)
for bounds in [((0, 0), (4, 8)), ((-6, -8), (-2, 0)), ((1, 1), (3, 9))]:
    box = Box.of(*bounds)
    w = solve_box(chain, box)
    print(f"box {bounds}: witness {w}")
    if w is not None:
        assert lat.member(w)

# randomized cross-check against the scan oracle
rng = random.Random(5)
agreements = 0
for _ in range(200):
    n = rng.randint(1, 3)
    gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
    lat = Lattice(n, gens)
    if lat.rank == 0:
        continue
    chain = certify(lat)
    if chain is None:
        continue
    lo = [rng.randint(-7, 7) for _ in range(n)]
    hi = [rng.randint(l, 7) for l in lo]
    box = Box.of(lo, hi)
    mine = solve_box(chain, box)
    oracle = brute_force_solve(lat, box)
    assert (mine is None) == (oracle is None)
    agreements += 1
print(f"{agreements} random instances agree with the scan oracle")
