"""Shared exception types. The CLI maps these onto process exit codes."""


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DivergenceError(RuntimeError):
    """A simulated run crossed the divergence threshold (CLI exit code 3)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ParseError(ValueError):
    """Malformed dataset file (CLI exit code 4)."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class UnsupportedModeError(ValueError):
    """Closed form undefined for this eigenvalue (lambda <= 0)."""


class DegenerateTrajectoryError(ValueError):
    """No closed form covers the start: an equal-weights start with w1 * w2 <= 0."""


class NotSymmetricError(ValueError):
    """Eigendecomposition input is not symmetric."""
