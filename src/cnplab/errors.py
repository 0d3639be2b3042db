"""Exception types shared across the package."""


class CnpLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidKernelError(CnpLabError):
    """Kernel rule or parameters do not define a valid coefficient sequence."""


class InsufficientCacheError(CnpLabError):
    """A coefficient table is too short for the requested degree."""


class DomainError(CnpLabError):
    """Evaluation point lies on or outside the closed unit ball."""


class CommutationError(CnpLabError):
    """Matrices supplied as a commuting tuple fail the commutator check."""


class DegenerateDilationError(CnpLabError):
    """No dilation space (a rank-zero defect), or a V that need not be injective."""


class NotCnpError(CnpLabError):
    """Operation requires a kernel with nonnegative inverted coefficients."""


class NonConvergedError(CnpLabError):
    """A truncated series failed its convergence diagnostic."""


class PrerequisiteError(CnpLabError):
    """Input violates a documented precondition of the operation."""
