"""Exception hierarchy shared by all simulator layers."""


class OneQError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(OneQError):
    """A scenario or parameter value violates the schema or a domain bound."""


class SchemaError(ConfigurationError):
    """Raised when a scenario file cannot be parsed or fails validation.

    Carries the list of violations, each with a path to the offending field.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ResourceError(OneQError):
    """Illegal use of a quantum resource (consumed twice, wrong holder, ...)."""


class CoverageError(OneQError):
    """An operation required coverage that the involved nodes do not have."""


class ProtocolError(OneQError):
    """A protocol precondition or state-machine transition was violated."""


class PermanentLossError(ResourceError):
    """A payload qubit was destroyed and cannot be retried (no-cloning)."""


class InternalError(OneQError):
    """A non-package exception escaped a run; names the run and the simulated time."""
