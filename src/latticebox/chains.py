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
from functools import cached_property
from itertools import combinations
from operator import index

from .errors import DivisibilityError, ResourceLimitError, ZeroLatticeError
from .lattice import Lattice

MAX_IMAGE_DIM = 64


@dataclass(frozen=True)
class DivisorVector:
    """A lattice member dividing every member at its nonzero coordinates.

    pos, neg and zero index its positive, negative and zero coordinates,
    ascending. v fixes the layout of the reduced coordinates it induces:
    pairs (i, j), i < j, of nonzero coordinates in lexicographic order, then
    the zero coordinates in ascending order, image_dim = C(s, 2) + n - s in
    all for a support of size s. pairs is derived on first use, by a level
    that maps to an image, so a rank-1 or refused level never builds it.
    """

    v: tuple[int, ...]
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    zero: tuple[int, ...]

    @classmethod
    def of(cls, v) -> "DivisorVector":
        vec = tuple(index(x) for x in v)
        if not any(vec):
            raise ValueError("divisor vector must be nonzero")
        pos = tuple(i for i, x in enumerate(vec) if x > 0)
        neg = tuple(i for i, x in enumerate(vec) if x < 0)
        zero = tuple(i for i, x in enumerate(vec) if x == 0)
        return cls(vec, pos, neg, zero)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(combinations(sorted(self.pos + self.neg), 2))

    @property
    def image_dim(self) -> int:
        s = len(self.pos) + len(self.neg)
        return s * (s - 1) // 2 + len(self.zero)


def map_point(div: DivisorVector, t) -> tuple[int, ...]:
    """Image of t: quotient differences on pairs, passthrough on zeros.

    Requires v_i | t_i wherever v_i != 0; the output is then integral.
    """
    vec = [index(x) for x in t]
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
    return Lattice(div.image_dim, images)


def _walk(lat: Lattice) -> Iterator[list[int]]:
    """The divisor vectors of lat as coordinate lists, in a fixed order.

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
    d = lat.projection_gcds()
    # An explicit stack, so that no rank runs into the recursion limit.
    stack = [(0, [0] * lat.ambient_dim)]
    while stack:
        k, v = stack.pop()
        if k == lat.rank:
            if any(v) and all(x == 0 or abs(x) == g for x, g in zip(v, d)):
                yield v
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


def certify(lat: Lattice):
    """Depth-first search for a divisor chain; None when no chain exists.

    Candidates are tried as the walk finds them, and the first fully
    certifying choice wins, so output is reproducible. Recursion terminates
    because the rank drops by one per level, and at rank 1 any candidate
    empties the lattice. The images can grow: the first candidate whose
    DivisorVector.image_dim exceeds MAX_IMAGE_DIM raises ResourceLimitError,
    at any depth and before its pair layout or image is built, even when a
    later candidate would fit.

    Different divisors often map to the same image lattice. A lattice is
    canonical and hashable, and a search that found no chain for it finds
    none again, so each call remembers the images that failed, the dead-block
    answers below included, and skips them: no lattice is searched twice.

    A lattice of two or more coordinate blocks (see _blocks) with a block
    that has no divisor has no chain. Every divisor of it is zero on that
    block, as its part there would be a divisor of the block, so the block
    passes unchanged into every image. A rank-1 lattice has a divisor, so
    the block's rank is at least 2, and no image falls to rank 1. _search
    applies the rule to the input and to each image before walking it,
    once per distinct lattice.
    """
    if lat.rank == 0:
        raise ZeroLatticeError("cannot certify the zero lattice")
    return _search(lat, set())


def _blocks(lat: Lattice) -> list[list[int]]:
    """The coordinate blocks of lat, each as its ascending coordinates.

    Two coordinates are joined when some basis row is nonzero at both; a
    block is a class that some row reaches. Each basis row lies inside
    one block, so lat is the direct sum of its blocks, and the basis
    restricted to a block's coordinates spans that block.
    """
    blocks: list[set[int]] = []
    for row in lat.basis:
        cols = {i for i, x in enumerate(row) if x}
        for block in [b for b in blocks if b & cols]:
            blocks.remove(block)
            cols |= block
        blocks.append(cols)
    return [sorted(b) for b in blocks]


def _dead_block(lat: Lattice) -> bool:
    """Whether lat has two or more blocks and one of them has no divisor."""
    blocks = _blocks(lat)
    lattices = (Lattice(len(c), [[r[i] for i in c] for r in lat.basis]) for c in blocks)
    return len(blocks) > 1 and any(next(_walk(b), None) is None for b in lattices)


def _search(lat: Lattice, failed: set):
    if lat in failed:
        return None
    if _dead_block(lat):
        failed.add(lat)
        return None
    for v in _walk(lat):
        div = DivisorVector.of(v)
        if lat.rank == 1:
            return ChainCertificate(lat, div, None)
        if div.image_dim > MAX_IMAGE_DIM:
            raise ResourceLimitError(
                f"image dimension {div.image_dim} exceeds cap {MAX_IMAGE_DIM}"
            )
        sub = _search(image_lattice(lat, div), failed)
        if sub is not None:
            return ChainCertificate(lat, div, sub)
    failed.add(lat)
    return None
