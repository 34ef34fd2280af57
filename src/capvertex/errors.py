"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class ConsistencyError(RuntimeError):
    """Two redundant internal computations disagreed beyond tolerance."""


class NoSolutionError(Exception):
    """The requested configuration admits no solution of the requested type."""


class NonConvergenceError(RuntimeError):
    """An iterative solve failed to reach its residual target."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class MeshDegenerationError(RuntimeError):
    """A mesh invariant (element area, topology) was violated during evolution."""
