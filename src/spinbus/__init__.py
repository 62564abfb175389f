"""spinbus: simulator and compiler toolkit for a dual-lattice architecture
where stationary atomic spins store qubits and a movable header atom of a
second species carries quantum state between them.

Importing the package loads no submodule, so a command that needs no arrays
never imports numpy; import the modules by name (``from spinbus import
scheduler``).  Every error is a ``SpinBusError``: a ``DomainError`` when an
input is refused, a ``NumericalError`` when computing from accepted inputs
fails.
"""

from .errors import DomainError, NumericalError, SpinBusError

__version__ = "0.1.0"

__all__ = ["SpinBusError", "DomainError", "NumericalError", "__version__"]
