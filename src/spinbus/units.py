"""Physical constants and the handful of unit conversions the toolkit needs.

Energies are carried as ordinary frequencies E/h in Hz everywhere in this
package.  Angular frequencies (rad/s) are always named ``omega``/``*_ang``
so the two conventions never mix silently.
"""

import math

from .errors import DomainError, NumericalError

# CODATA 2018.  h is stored as 2*pi*hbar so the pair is exactly consistent
# in floating point (the table identities below rely on that).
HBAR = 1.054571817e-34              # J s
H_PLANCK = 2.0 * math.pi * HBAR     # J s
BOHR_RADIUS = 5.29177210903e-11     # m
BOHR_MAGNETON = 9.2740100783e-24    # J/T
ATOMIC_MASS = 1.66053906660e-27     # kg
SPEED_OF_LIGHT = 299792458.0        # m/s (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12   # F/m
VACUUM_PERMEABILITY = 1.25663706212e-6   # N/A^2


def a0_to_m(length_a0: float) -> float:
    """Bohr radii to meters."""
    return length_a0 * BOHR_RADIUS


def amu_to_kg(mass_amu: float, name: str) -> float:
    """Atomic mass units to kg, for a mass the user typed as the input ``name``:
    one not positive is refused by that name, and a positive one whose
    product in kg underflows to 0 is a numerical failure."""
    if not mass_amu > 0:
        raise DomainError(f"{name} must be positive, got {mass_amu!r}")
    if (mass_kg := mass_amu * ATOMIC_MASS) == 0.0:
        raise NumericalError(f"{name} {mass_amu!r} underflows to 0 kg")
    return mass_kg


def recoil_frequency(mass_kg: float, wavelength_m: float) -> float:
    """Photon-recoil energy h / (2 M lambda^2), returned as a frequency in Hz.

    This is the kinetic energy scale for emitting/absorbing one lattice
    photon.  Rb in a 780 nm lattice gives 3.77 kHz; the same atom against
    a 10.6 um CO2 photon gives 20.4 Hz.
    """
    if mass_kg <= 0 or wavelength_m <= 0:
        raise DomainError(f"mass and wavelength must be positive, got {mass_kg}, {wavelength_m}")
    return H_PLANCK / (2.0 * mass_kg * wavelength_m * wavelength_m)


def ground_state_size(mass_kg: float, trap_frequency_hz: float) -> float:
    """Harmonic-oscillator ground-state size sqrt(hbar / (2 M omega)) in m.

    omega = 2*pi*nu.  With this convention the Lamb-Dicke identity
    eta = k * a_osc = sqrt(E_R / nu) holds exactly (``traps`` computes the
    sqrt(E_R / nu) side),
    and <x^2> of the ground state equals a_osc^2, so the position density
    is a normal distribution with sigma = a_osc on each axis.
    """
    if mass_kg <= 0 or trap_frequency_hz <= 0:
        raise DomainError(f"mass and trap frequency must be positive, got {mass_kg}, {trap_frequency_hz}")
    return math.sqrt(HBAR / (2.0 * mass_kg * 2.0 * math.pi * trap_frequency_hz))

