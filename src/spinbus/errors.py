"""Exception types shared across the package."""


class SpinBusError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SpinBusError, ValueError):
    """Invalid physical input, argument, or configuration (CLI exit code 1)."""


class NumericalError(SpinBusError, RuntimeError):
    """A numerical procedure failed to converge or breached a threshold (CLI exit code 2)."""


class PlanningError(NumericalError):
    """Transport planning could not satisfy the excitation budget."""


class CircuitParseError(DomainError):
    """Malformed circuit text; message names the offending line."""


class ConfigError(DomainError):
    """A configuration file that is not valid JSON."""
