"""Exception types shared by all modules."""


class PTOscillatorError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(PTOscillatorError, ValueError):
    """A physical parameter or option violates its precondition."""


class DomainError(PTOscillatorError, ValueError):
    """Input lies outside the mathematical domain of an operation,
    e.g. a coordinate beyond the walls or parameters outside an
    expansion's validity region."""


class QuadratureError(PTOscillatorError, RuntimeError):
    """Numerical integration could not reach the requested tolerance."""


class ConvergenceError(PTOscillatorError, RuntimeError):
    """An iterative computation (eigenvalue bisection, extrapolation or
    the semiclassical root) failed to converge."""


class ResourceLimitError(PTOscillatorError, RuntimeError):
    """A requested grid exceeds the configured maximum size."""
