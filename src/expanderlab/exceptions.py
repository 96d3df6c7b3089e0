"""Exception types shared across the package."""


class ExpanderLabError(Exception):
    """Base class for all package errors."""


class DomainError(ExpanderLabError, ValueError):
    """An input violates a documented precondition."""


class IntegrationError(ExpanderLabError, RuntimeError):
    """ODE integration failed (step-size collapse, overflow, solver abort)."""

    def __init__(self, message, last_rho=None):
        super().__init__(message)
        self.last_rho = last_rho


class TailNotResolvedError(ExpanderLabError, RuntimeError):
    """Tail-limit fit windows disagree too strongly; integrate further out."""


class BadBracketError(DomainError):
    """A search bracket does not satisfy its endpoint conditions."""


class EmptyBracketError(ExpanderLabError, RuntimeError):
    """Root bracket contains no sign change of the miss function."""


class ResolutionError(DomainError):
    """Grid too coarse for the requested computation."""


class NoUnstableExpanderError(ExpanderLabError, RuntimeError):
    """No linearly unstable profile exists in the requested regime."""


class QuadratureAccuracyError(ExpanderLabError, RuntimeError):
    """Quadrature failed to converge to the requested accuracy."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved

