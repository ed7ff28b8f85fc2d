"""Exception types shared across the package."""

__all__ = ["ConfigError", "StreamFormatError", "EstimationError"]


class ConfigError(ValueError):
    """Invalid configuration file, spec string or CLI usage."""


class StreamFormatError(RuntimeError):
    """A stream file or its sidecar could not be parsed, or a simulated
    stream could not be written in time order."""


class EstimationError(RuntimeError):
    """An estimator's preconditions are not met (e.g. no clicks)."""
