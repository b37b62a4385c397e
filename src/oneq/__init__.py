"""Deterministic discrete-event simulator for a classical-quantum cellular
network: entanglement lifecycle under decoherence, a cellular control plane
with one quantum state, and applications for keying, blind computation, and
sensing, all cross-checkable against closed-form models."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    CoverageError,
    InternalError,
    OneQError,
    PermanentLossError,
    ProtocolError,
    ResourceError,
    SchemaError,
)

__all__ = [
    "__version__",
    "OneQError",
    "ConfigurationError",
    "SchemaError",
    "ResourceError",
    "CoverageError",
    "ProtocolError",
    "PermanentLossError",
    "InternalError",
]
