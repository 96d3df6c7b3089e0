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


class BadBracketError(ExpanderLabError, ValueError):
    """A search bracket does not satisfy its endpoint conditions."""


class EmptyBracketError(ExpanderLabError, RuntimeError):
    """Root bracket contains no sign change of the miss function."""


class ResolutionError(ExpanderLabError, ValueError):
    """Grid too coarse for the requested computation."""


class NoUnstableExpanderError(ExpanderLabError, RuntimeError):
    """No linearly unstable profile exists in the requested regime."""


class FeasibilityError(ExpanderLabError, RuntimeError):
    """The (q, r, lambda_bar) combination violates the smallness condition."""


class SeedAmplitudeError(ExpanderLabError, RuntimeError):
    """Perturbation seed too large; the linear-regime bound broke early."""

    def __init__(self, message, suggested_epsilon=None):
        super().__init__(message)
        self.suggested_epsilon = suggested_epsilon


class QuadratureAccuracyError(ExpanderLabError, RuntimeError):
    """Quadrature failed to converge to the requested accuracy."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class StepRejectedError(ExpanderLabError, RuntimeError):
    """Time step exceeds the explicit-nonlinearity stability cap."""

    def __init__(self, message, suggested_dtau=None):
        super().__init__(message)
        self.suggested_dtau = suggested_dtau
