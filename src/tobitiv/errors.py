"""Exception hierarchy shared across the package."""


class TobitIVError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TobitIVError):
    """A numeric argument is outside its valid domain (e.g. non-PD covariance)."""


class UnsupportedOrderError(TobitIVError):
    """Requested moment order exceeds the configured maximum."""


class ConvergenceError(TobitIVError):
    """An iterative numeric routine failed to reach the requested accuracy."""

    def __init__(self, message, achieved=None, field=None):
        super().__init__(message)
        self.achieved = achieved
        self.field = field  # the config field whose value could not be reached


class InsufficientAcceptanceError(TobitIVError):
    """Rejection sampler accepted too few draws to form an estimate."""

    def __init__(self, message, acceptance_rate):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class ConfigurationError(TobitIVError):
    """A configuration object violates its invariants."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class UnsupportedModeError(TobitIVError):
    """Operation not defined for this sampling mode."""


class EmptySystemError(TobitIVError):
    """No qualifying observations to build moment rows from."""


class IdentificationError(TobitIVError):
    """Instrument-regressor cross-moment matrix is numerically rank deficient."""

    def __init__(self, message, deficient_directions=None):
        super().__init__(message)
        self.deficient_directions = deficient_directions


class InsufficientObservationsError(TobitIVError):
    """Fewer rows than parameters."""


class NotApplicableError(TobitIVError):
    """Statistic undefined for this system (e.g. J test when just-identified)."""


class BracketError(TobitIVError):
    """One-dimensional search bracket does not contain an interior minimizer."""
