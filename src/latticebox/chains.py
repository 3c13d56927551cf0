"""Divisor-vector chains for integer lattices.

A divisor vector of a lattice L is a nonzero member v whose nonzero
coordinates divide the matching coordinate of every member. Such a v
induces a linear map onto pairwise quotient differences (t_i/v_i - t_j/v_j
over the nonzero coordinates of v) plus the untouched zero coordinates;
its kernel inside L is exactly Zv, so the image lattice has rank one less.
A chain certificate witnesses that repeating this reduction empties the
lattice; chains drive certificate generation and witness extraction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .errors import DivisibilityError, ResourceLimitError, ZeroLatticeError
from .lattice import Lattice

DEFAULT_MAX_DIM = 64


@dataclass(frozen=True)
class DivisorVector:
    """A lattice member dividing every member at its nonzero coordinates.

    pos, neg and zero index its positive, negative and zero coordinates,
    ascending. They fix the layout of the reduced coordinates v induces:
    pairs (i, j), i < j, of nonzero coordinates in lexicographic order, then
    the zero coordinates in ascending order. No permutation of the ambient
    coordinates ever happens; bookkeeping stays in original indices.
    """

    v: tuple[int, ...]
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    zero: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, v) -> "DivisorVector":
        vec = tuple(int(x) for x in v)
        if not any(vec):
            raise ValueError("divisor vector must be nonzero")
        pos = tuple(i for i, x in enumerate(vec) if x > 0)
        neg = tuple(i for i, x in enumerate(vec) if x < 0)
        zero = tuple(i for i, x in enumerate(vec) if x == 0)
        return cls(vec, pos, neg, zero, tuple(combinations(sorted(pos + neg), 2)))


def map_point(div: DivisorVector, t) -> tuple[int, ...]:
    """Image of t: quotient differences on pairs, passthrough on zeros.

    Requires v_i | t_i wherever v_i != 0; the output is then integral.
    """
    vec = [int(x) for x in t]
    v = div.v
    ratios = {}
    for i in div.pos + div.neg:
        if vec[i] % v[i] != 0:
            raise DivisibilityError(f"coordinate {i}: {v[i]} does not divide {vec[i]}")
        ratios[i] = vec[i] // v[i]
    out = [ratios[i] - ratios[j] for i, j in div.pairs]
    out.extend(vec[k] for k in div.zero)
    return tuple(out)


def image_lattice(lat: Lattice, div: DivisorVector) -> Lattice:
    """Canonical lattice spanned by the images of the basis vectors."""
    images = [map_point(div, row) for row in lat.basis]
    return Lattice(len(div.pairs) + len(div.zero), images)


def divisor_candidates(lat: Lattice) -> Iterator[DivisorVector]:
    """The divisor vectors of lat, one at a time, in a fixed order.

    A member v divides everything iff each coordinate is either zero or has
    absolute value equal to the per-coordinate gcd d_i (v in the lattice
    forces d_i | v_i; dividing every member forces v_i | d_i). Candidates
    are therefore determined by their values on the pivot columns, each of
    which ranges over {+d, -d, 0}; that keeps the enumeration exponential
    in the rank rather than in the support size. A depth-first walk fixes
    row k's coefficient from the sign at pivot p_k and cuts a branch, with
    its whole subtree, once that coefficient is not integral. Rows k.. of
    the echelon basis vanish left of p_k, so the walk's + - 0 order is
    lexicographic over the nonzero-gcd coordinates, + before - before 0.
    """
    if lat.rank == 0:
        raise ZeroLatticeError("zero lattice has no divisor vectors")
    return _walk(lat)


def _walk(lat: Lattice) -> Iterator[DivisorVector]:
    d = lat.projection_gcds()
    # An explicit stack, so that no rank runs into the recursion limit.
    stack = [(0, [0] * lat.ambient_dim)]
    while stack:
        k, v = stack.pop()
        if k == lat.rank:
            if any(v) and all(x == 0 or abs(x) == g for x, g in zip(v, d)):
                yield DivisorVector.of(v)
            continue
        row, p = lat.basis[k], lat.pivots[k]
        for sign in (0, -1, 1):  # pushed in reverse: + is walked first
            c, rem = divmod(sign * d[p] - v[p], row[p])
            if rem == 0:
                stack.append((k + 1, [x + c * y for x, y in zip(v, row)]))


@dataclass(frozen=True)
class ChainCertificate:
    """Recursive witness: a divisor vector per level until the image dies.

    child is None exactly when the image lattice is zero, i.e. at rank 1;
    the chain length always equals the rank of the lattice.
    """

    lattice: Lattice
    divisor: DivisorVector
    child: "ChainCertificate | None"

    @property
    def chain_length(self) -> int:
        return 1 + (self.child.chain_length if self.child is not None else 0)


def certify(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM):
    """Depth-first search for a divisor chain; None when no chain exists.

    Candidates are tried as the walk finds them, and the first fully
    certifying choice wins, so output is reproducible. Recursion terminates
    because the rank drops by one per level, and at rank 1 any candidate
    empties the lattice. The ambient dimension of the images can grow; it
    is read from the divisor (its pairs plus its zero coordinates), so a
    level beyond max_dim raises ResourceLimitError before its image is
    built rather than searching a blown-up space.
    """
    if lat.rank == 0:
        raise ZeroLatticeError("cannot certify the zero lattice")
    for div in divisor_candidates(lat):
        if lat.rank == 1:
            return ChainCertificate(lat, div, None)
        dim = len(div.pairs) + len(div.zero)
        if dim > max_dim:
            raise ResourceLimitError(f"image dimension {dim} exceeds cap {max_dim}")
        sub = certify(image_lattice(lat, div), max_dim=max_dim)
        if sub is not None:
            return ChainCertificate(lat, div, sub)
    return None
