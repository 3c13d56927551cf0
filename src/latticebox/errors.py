"""Exception hierarchy shared across the package."""


class LatticeBoxError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LatticeBoxError):
    """A vector or box does not match the expected ambient dimension."""


class ZeroLatticeError(LatticeBoxError):
    """The zero lattice was passed to an operation that needs a nonzero one."""


class DivisibilityError(LatticeBoxError):
    """A coordinate is not divisible by the divisor vector where required."""


class ResourceLimitError(LatticeBoxError):
    """A configured size or search cap was exceeded."""


class CapExceededError(ResourceLimitError):
    """The brute-force point cap was exceeded."""


class PreconditionError(LatticeBoxError):
    """Caller-supplied data violates a documented precondition."""


class RingMembershipError(PreconditionError):
    """A bound or value lies outside the restricted-denominator ring."""


class InconsistencyError(LatticeBoxError):
    """Internal invariant violated; indicates a bug, never expected."""
