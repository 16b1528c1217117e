"""Exception types shared across the package."""


class QlwaveError(Exception):
    """Base class for all package errors."""


class ConfigurationError(QlwaveError):
    """Invalid parameter or configuration value."""


class AliasingError(QlwaveError):
    """A transform grid is too small to represent the requested field."""


class NumericsError(QlwaveError):
    """A numeric evaluation produced non-finite values."""


class DivergenceError(QlwaveError):
    """The time integration produced a non-finite state.

    Attributes
    ----------
    step : int or None
        Index of the failing step, when known.
    time : float or None
        Simulation time of the failing step, when known.
    """

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class NormGuardError(DivergenceError):
    """The H^2 x H^1 solution norm exceeded the guard bound integrator._MAX_NORM (1e6)."""


class PreconditionError(QlwaveError):
    """A documented precondition of an operation does not hold."""


class ReferenceFailure(QlwaveError):
    """A reference solution failed its self-consistency validation."""


class EstimationError(QlwaveError):
    """Not enough usable data to estimate a convergence order."""
