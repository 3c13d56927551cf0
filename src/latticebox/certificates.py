"""Box-feasibility certificates built from floor/ceiling expressions.

For a lattice with a divisor chain there is a finite set of integer-valued
expressions in the 2n box bounds (a_1, b_1, ..., a_n, b_n), built from
projections by negation, differences, and floor/ceiling division, whose
simultaneous nonnegativity decides whether the lattice meets the box. The
set depends only on the lattice, so it is generated once and reused across
boxes. solve_box extracts an explicit witness by the same top-down
recursion. As expressions, each bound is built once and shared by every
certificate that uses it, so a set is a DAG of node objects. Evaluation
follows that sharing: it computes each distinct node once per box, where a
walk of the full trees would repeat a shared bound for every use of it.
Serialization still writes each expression as a full tree.

Everything rests on one sign rule. A divisor v pins the multiplier t of
t·v inside the box [a, b] to [L_i, U_i] on each nonzero coordinate i:
L_i = ceil(a_i/v_i) and U_i = floor(b_i/v_i) when v_i > 0, with a_i and
b_i swapped when v_i < 0. The rank-1 family is U_j - L_i over ordered
coordinate pairs, a reduced pair coordinate (i, j) ranges over
[L_i - U_j, U_i - L_j], and each coordinate needs U_i - L_i >= 0. The rule
is written once (_multiplier_bounds) and run on expression trees to build
certificates and on integers, once per level, in solve_box.

Expression trees here are a superset of the minimal grammar (explicit Neg
and Diff nodes, inputs at both polarities). Only the division-nesting
depth bound matters: every generated expression has depth <= the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import index, sub

from .arith import ceil_div, floor_div
from .chains import ChainCertificate, DivisorVector, map_point
from .errors import CapExceededError, DimensionError, InconsistencyError
from .lattice import Lattice

DEFAULT_ORACLE_CAP = 10**6


class Expr:
    """Base class for certificate expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Lower(Expr):
    """Projection onto the lower bound a_i (0-based index)."""

    i: int


@dataclass(frozen=True)
class Upper(Expr):
    """Projection onto the upper bound b_i (0-based index)."""

    i: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class FloorDiv(Expr):
    arg: Expr
    m: int

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("FloorDiv: zero divisor")


@dataclass(frozen=True)
class CeilDiv(Expr):
    arg: Expr
    m: int

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("CeilDiv: zero divisor")


@dataclass(frozen=True)
class Diff(Expr):
    lhs: Expr
    rhs: Expr


def evaluate(expr: Expr, a, b) -> int:
    """Exact evaluation at lower bounds a and upper bounds b.

    Each distinct node object is computed once, however many parents share it.
    """
    return _evaluate(expr, a, b, {})


def _evaluate(expr: Expr, a, b, memo: dict) -> int:
    """evaluate with memo: id(node) -> value of the nodes already computed.

    Keys are object ids, which Python reuses once an object is freed, so a
    memo is valid only while the expressions it has seen are alive: one per
    call, never kept.
    """
    value = memo.get(id(expr))
    if value is not None:
        return value
    if isinstance(expr, Lower):
        value = index(a[expr.i])
    elif isinstance(expr, Upper):
        value = index(b[expr.i])
    elif isinstance(expr, Neg):
        value = -_evaluate(expr.arg, a, b, memo)
    elif isinstance(expr, FloorDiv):
        value = floor_div(_evaluate(expr.arg, a, b, memo), expr.m)
    elif isinstance(expr, CeilDiv):
        value = ceil_div(_evaluate(expr.arg, a, b, memo), expr.m)
    elif isinstance(expr, Diff):
        value = _evaluate(expr.lhs, a, b, memo) - _evaluate(expr.rhs, a, b, memo)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = value
    return value


def expr_order(expr: Expr) -> int:
    """Maximum floor/ceiling nesting depth along any root-to-leaf path.

    Like evaluate, visits each distinct node object once.
    """
    return _order(expr, {})


def _order(expr: Expr, memo: dict) -> int:
    """expr_order with memo: id(node) -> order, valid for one call only."""
    order = memo.get(id(expr))
    if order is not None:
        return order
    if isinstance(expr, (Lower, Upper)):
        order = 0
    elif isinstance(expr, Neg):
        order = _order(expr.arg, memo)
    elif isinstance(expr, (FloorDiv, CeilDiv)):
        order = 1 + _order(expr.arg, memo)
    elif isinstance(expr, Diff):
        order = max(_order(expr.lhs, memo), _order(expr.rhs, memo))
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = order
    return order


@dataclass(frozen=True)
class Box:
    """Integer bounds a_i <= x_i <= b_i."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        # operator.index raises TypeError on a float or a string and turns
        # any other integer type, bool included, into an int
        object.__setattr__(self, "lower", tuple(map(index, self.lower)))
        object.__setattr__(self, "upper", tuple(map(index, self.upper)))
        if len(self.lower) != len(self.upper):
            raise DimensionError("box bound lengths differ")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"empty box interval [{lo}, {hi}]")

    @classmethod
    def of(cls, lower, upper) -> "Box":
        """A box from integer bounds; floats and strings raise TypeError."""
        return cls(lower, upper)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def point_count(self) -> int:
        return prod(hi - lo + 1 for lo, hi in zip(self.lower, self.upper))


@dataclass(frozen=True)
class CertificateSet:
    """Finite expression set over the 2n bounds of an n-dimensional box."""

    ambient_dim: int
    rank: int
    exprs: tuple[Expr, ...]


def _multiplier_bounds(div: DivisorVector, lower, upper, floor, ceil) -> dict:
    """The sign rule: {i: (L_i, U_i)} over nonzero coordinates, positives first."""
    v = div.v
    bounds = {}
    for i in div.pos:
        bounds[i] = (ceil(lower[i], v[i]), floor(upper[i], v[i]))
    for i in div.neg:
        bounds[i] = (ceil(upper[i], v[i]), floor(lower[i], v[i]))
    return bounds


def _reduced_bounds(div: DivisorVector, bounds: dict, lower, upper, diff):
    """[L_i - U_j, U_i - L_j] per pair (i, j), then the zero coordinates."""
    lowers = [diff(bounds[i][0], bounds[j][1]) for i, j in div.pairs]
    uppers = [diff(bounds[i][1], bounds[j][0]) for i, j in div.pairs]
    lowers += [lower[k] for k in div.zero]
    uppers += [upper[k] for k in div.zero]
    return lowers, uppers


def _leaves(n: int) -> tuple[list[Expr], list[Expr]]:
    return [Lower(i) for i in range(n)], [Upper(i) for i in range(n)]


def _certificates(div: DivisorVector, child, lower, upper) -> list[Expr]:
    """Certificates of a chain level (child: the next, or None) over its inputs.

    At rank 1 (child None) members are t·v, so feasibility is U_j - L_i >= 0
    for every ordered pair of nonzero coordinates. Zero coordinates of v are
    zero in every member, which needs a_k <= 0 <= b_k: emitted as the two
    expressions b_k and -a_k. (The single difference b_k - a_k would accept
    boxes with 0 < a_k <= b_k that contain no lattice point.)
    """
    bounds = _multiplier_bounds(div, lower, upper, FloorDiv, CeilDiv)
    if child is None:
        pairs = [
            *product(div.pos, div.pos),
            *product(div.neg, div.neg),
            *product(div.pos, div.neg),
            *((j, i) for i, j in product(div.pos, div.neg)),
        ]
        out: list[Expr] = [Diff(bounds[j][1], bounds[i][0]) for i, j in pairs]
        for k in div.zero:
            out.append(upper[k])
            out.append(Neg(lower[k]))
        return out
    reduced = _reduced_bounds(div, bounds, lower, upper, Diff)
    out = _certificates(child.divisor, child.child, *reduced)
    out.extend(Diff(hi, lo) for lo, hi in bounds.values())
    return out


def generate_certificates(cert: ChainCertificate) -> CertificateSet:
    """Build the certificate set for a chain-certified lattice.

    Top-down, as in solve_box: a level's reduced-bound expressions are the
    child level's inputs (raising the division depth by at most one), and
    its per-coordinate interval conditions follow the child's expressions;
    rank 1 emits the closed family. Subexpressions are shared, not copied.
    """
    lat = cert.lattice
    exprs = _certificates(cert.divisor, cert.child, *_leaves(lat.ambient_dim))
    return CertificateSet(lat.ambient_dim, lat.rank, tuple(exprs))


def feasible_by_certificates(certs: CertificateSet, box: Box) -> bool:
    """True iff every certificate expression is nonnegative at the bounds.

    The expressions share subexpressions, and one memo spans the whole set,
    so each distinct node is computed at most once for the box. Evaluation
    stops at the first negative expression.
    """
    if box.dim != certs.ambient_dim:
        raise DimensionError(
            f"box dimension {box.dim}, certificates expect {certs.ambient_dim}"
        )
    a, b, memo = box.lower, box.upper, {}
    return all(_evaluate(e, a, b, memo) >= 0 for e in certs.exprs)


def solve_box(cert: ChainCertificate, box: Box):
    """Explicit lattice point in the box, or None when there is none.

    Follows the constructive recursion, one rule at every level: check the
    per-coordinate interval conditions, compute the reduced bounds on
    integers, solve the child, lift the child witness z to a member y of
    the lattice that maps to it, then pick the smallest feasible multiplier
    t for y + t·v. Rank 1 is the level whose lift is 0: its image is the
    zero lattice, whose only point is 0, so it has no child and y = 0.

    The lift is read off z in closed form. With i0 the first nonzero
    coordinate of v, set y_i0 = 0, y_j = -z[(i0, j)]·v_j on every other
    nonzero j, and y_k = z_k on the zero coordinates. The pairs are in
    lexicographic order, so the (i0, j) are z's first s - 1 entries (s the
    support size) and the zero coordinates its last. When z is in the
    image with some preimage y*, this y equals y* - r·v for r = y*_i0/v_i0,
    so it lies in the coset y* + Zv of all preimages (the map's kernel
    inside the lattice is exactly Zv), and the smallest t picks the same
    point from any of them.

    The range of t after the lift is the level's range [L_i, U_i] shifted
    by -y_i/v_i, with no second division of the bounds. That is exact: y
    is a member, so v_i divides y_i, and ceil((a_i - y_i)/v_i) =
    ceil(a_i/v_i) - y_i/v_i; likewise for floor, and with a_i and b_i
    swapped when v_i < 0. Returns None exactly on the inputs where the
    certificate set evaluates negative somewhere; from rank 2 up, the last
    two checks always pass once the lift does. The one internal
    inconsistency raised is a child witness with no preimage in the lattice.
    """
    lat = cert.lattice
    if box.dim != lat.ambient_dim:
        raise DimensionError(
            f"box dimension {box.dim}, lattice ambient is {lat.ambient_dim}"
        )
    div = cert.divisor
    v = div.v
    a, b = box.lower, box.upper
    bounds = _multiplier_bounds(div, a, b, floor_div, ceil_div)
    if any(lo > hi for lo, hi in bounds.values()):
        return None
    y = [0] * lat.ambient_dim
    if cert.child is not None:
        red_lo, red_hi = _reduced_bounds(div, bounds, a, b, sub)
        z = solve_box(cert.child, Box.of(red_lo, red_hi))
        if z is None:
            return None
        for j, zj in zip(sorted(div.pos + div.neg)[1:], z):
            y[j] = -zj * v[j]
        for k, zk in zip(div.zero, z[len(z) - len(div.zero):]):
            y[k] = zk
        if map_point(div, y) != z or not lat.member(y):
            raise InconsistencyError("child witness is outside the image lattice")
    for k in div.zero:
        if not a[k] <= y[k] <= b[k]:
            return None
    lo = max(low - y[i] // v[i] for i, (low, _) in bounds.items())
    hi = min(high - y[i] // v[i] for i, (_, high) in bounds.items())
    if lo > hi:
        return None
    return tuple(lo * vi + yi for vi, yi in zip(v, y))


def brute_force_solve(lat: Lattice, box: Box, cap: int = DEFAULT_ORACLE_CAP):
    """First lattice point of the box in lexicographic scan order, or None.

    Refuses boxes of more than cap points before scanning any.
    """
    if box.dim != lat.ambient_dim:
        raise DimensionError(
            f"box dimension {box.dim}, lattice ambient is {lat.ambient_dim}"
        )
    total = box.point_count()
    if total > cap:
        raise CapExceededError(f"box holds {total} points, cap is {cap}")
    ranges = [range(lo, hi + 1) for lo, hi in zip(box.lower, box.upper)]
    return next(filter(lat.member, product(*ranges)), None)
