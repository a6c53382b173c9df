"""Exception types shared across the package."""


class BlowUpError(RuntimeError):
    """Time integration produced nonfinite values.

    Carries the simulation time at which the failure was detected.
    """

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"solution blew up at t={time:.6g}")


class ConfigError(ValueError):
    """Malformed or out-of-domain run configuration."""


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""
