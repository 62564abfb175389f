"""spinbus: simulator and compiler toolkit for a dual-lattice architecture
where stationary atomic spins store qubits and a movable header atom of a
second species carries quantum state between them.

Importing the package loads no submodule, so a command that needs no arrays
never imports numpy; import the modules by name (``from spinbus import
scheduler``).
"""

from .errors import (
    CircuitParseError,
    ConfigError,
    DomainError,
    NumericalError,
    PlanningError,
    SpinBusError,
)

__version__ = "0.1.0"

__all__ = [
    "SpinBusError",
    "DomainError",
    "NumericalError",
    "PlanningError",
    "CircuitParseError",
    "ConfigError",
    "__version__",
]
