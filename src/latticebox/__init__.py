"""Exact lattice-box feasibility and restricted-denominator solving.

Two exact-arithmetic toolchains:

* integer lattices: canonical bases, divisor chains, floor/ceiling
  certificate sets that decide whether a lattice meets an integer box,
  constructive witness extraction, and a brute-force oracle;
* rational families: elementary integral relations (circuits), the prime
  set they generate, exact rational box solving, and refinement of
  rational solutions into the ring of P-smooth-denominator rationals.
"""

from .arith import (
    PrimeSet,
    ceil_div,
    factorize,
    floor_div,
    format_rational,
    in_qp,
    is_prime,
    parse_rational,
)
from .certificates import (
    Box,
    CeilDiv,
    CertificateSet,
    Diff,
    Expr,
    FloorDiv,
    Lower,
    Neg,
    Upper,
    brute_force_solve,
    evaluate,
    expr_order,
    feasible_by_certificates,
    generate_certificates,
    solve_box,
)
from .chains import (
    ChainCertificate,
    DivisorVector,
    certify,
    image_lattice,
    map_point,
)
from .circuits import Circuit, circuits, prime_set
from .errors import (
    CapExceededError,
    DimensionError,
    DivisibilityError,
    InconsistencyError,
    LatticeBoxError,
    PreconditionError,
    ResourceLimitError,
    RingMembershipError,
    ZeroLatticeError,
)
from .lattice import Lattice
from .localized import (
    QpBoxInstance,
    QpSolveResult,
    RefinementTrace,
    RefineStep,
    near_integers_solve,
    qp_solve_exact,
    rational_box_solve,
    refine_to_qp,
)

__all__ = [
    "Box",
    "CapExceededError",
    "CeilDiv",
    "CertificateSet",
    "ChainCertificate",
    "Circuit",
    "Diff",
    "DimensionError",
    "DivisibilityError",
    "DivisorVector",
    "Expr",
    "FloorDiv",
    "InconsistencyError",
    "Lattice",
    "LatticeBoxError",
    "Lower",
    "Neg",
    "PreconditionError",
    "PrimeSet",
    "QpBoxInstance",
    "QpSolveResult",
    "RefineStep",
    "RefinementTrace",
    "ResourceLimitError",
    "RingMembershipError",
    "Upper",
    "ZeroLatticeError",
    "brute_force_solve",
    "ceil_div",
    "certify",
    "circuits",
    "evaluate",
    "expr_order",
    "factorize",
    "feasible_by_certificates",
    "floor_div",
    "format_rational",
    "generate_certificates",
    "image_lattice",
    "in_qp",
    "is_prime",
    "map_point",
    "near_integers_solve",
    "parse_rational",
    "prime_set",
    "qp_solve_exact",
    "rational_box_solve",
    "refine_to_qp",
    "solve_box",
]
