"""Exception hierarchy shared by every magcoh module.

Each class carries the exit code the command-line tool maps it to:
domain violations exit 2, infeasible-but-valid requests exit 3, and
internal consistency failures exit 4.
"""

__all__ = [
    "MagcohError",
    "DomainError",
    "InfeasibilityError",
    "InternalConsistencyError",
    "NullStateError",
    "DivergenceError",
]


class MagcohError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    category = "error"


class DomainError(MagcohError):
    """Input outside an operation's documented domain."""

    exit_code = 2
    category = "domain"


class InfeasibilityError(MagcohError):
    """Valid input whose computation would exceed a configured budget."""

    exit_code = 3
    category = "infeasible"


class InternalConsistencyError(MagcohError):
    """A computed object failed its own validation."""

    exit_code = 4
    category = "internal-consistency"


class NullStateError(DomainError):
    """Momentum choice that interferes destructively to the zero vector."""


class DivergenceError(DomainError):
    """Quantity diverges at the requested point.

    ``sign`` is +1 or -1 and tells which infinite branch was hit.
    """

    def __init__(self, message, sign):
        super().__init__(message)
        self.sign = sign
