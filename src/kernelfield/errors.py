"""Exception hierarchy shared across the package."""


class KernelFieldError(Exception):
    """Base class for all package-specific errors."""


class InvalidGraphError(KernelFieldError, ValueError):
    """Graph construction input is structurally invalid."""


class EdgeNotFoundError(KernelFieldError, KeyError):
    """Requested edge does not exist in the graph."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class InvalidMatrixError(KernelFieldError, ValueError):
    """Matrix violates a structural precondition (e.g. symmetry)."""


class DimensionMismatchError(KernelFieldError, ValueError):
    """Operands have incompatible shapes."""


class DomainError(KernelFieldError, ValueError):
    """Numeric input outside the mathematical domain (e.g. nonpositive weight)."""


class NumericalError(KernelFieldError, ArithmeticError):
    """Numerical failure: non-convergent iteration or overflow."""
