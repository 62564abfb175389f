"""Exception types shared across the package, one class per CLI exit code; a
message names what failed, and the class says only which of the two codes:
an input refused (a flag, circuit text, a config or schedule file) or a
computation from accepted inputs that failed (float range, convergence)."""


class SpinBusError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SpinBusError, ValueError):
    """An input is refused (CLI exit code 1)."""


class NumericalError(SpinBusError, RuntimeError):
    """Computing from accepted inputs failed (CLI exit code 2)."""
