"""Exception types shared across the package."""


class AdiaflowError(RuntimeError):
    """Base class for all package-specific failures."""


class BallViolationError(AdiaflowError):
    """A field left the small-ball regime an operation requires."""


class ClassificationError(AdiaflowError):
    """Spectral classification failed (wrong mode counts or ambiguous gaps);
    ``decompose`` attaches the eigenvalues it classified as ``eigenvalues``."""


class ConvergenceError(AdiaflowError):
    """An iterative solver (Newton, Picard) failed to converge."""


class AdmissibilityError(AdiaflowError):
    """A trajectory path violated the weighted decay bounds.

    Carries the first offending time in ``offending_time`` when known.
    """

    def __init__(self, message, offending_time=None):
        super().__init__(message)
        self.offending_time = offending_time


class ConfigError(AdiaflowError):
    """Invalid configuration value or file."""
