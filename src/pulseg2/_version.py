"""Package version; every stream sidecar records it under ``pulseg2``."""

__version__ = "0.18.0"
