"""Exception types shared across the package."""


class PdemError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PdemError):
    """Argument outside the mathematical domain (e.g. position at or behind the wall)."""


class LevelOutOfRange(PdemError):
    """Quantum number outside 0..N for the given parameters."""


class BelowContinuum(PdemError):
    """Energy at or below the well depth where no scattering state exists."""


class NonConvergence(PdemError):
    """A series or iteration failed to meet its stopping criterion."""


class PolePivot(PdemError):
    """Lower hypergeometric parameter sits on a pole (non-positive integer)."""


class ToleranceNotMet(PdemError):
    """Quadrature or the eigensolver could not reach the requested tolerance.

    Carries the best estimate and its error bound so callers can decide
    whether the result is still usable.
    """

    def __init__(self, estimate, error_bound, message=None):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(
            message
            or f"tolerance not met: estimate={estimate!r}, error_bound={error_bound!r}"
        )

