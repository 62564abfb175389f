"""Trap parameter reports for the two optical lattices.

The qubit register sits in a deep far-red CO2-laser lattice (10.6 um);
the movable header atom sits in a much tighter blue-detuned near-resonant
lattice.  This module reproduces, per alkali species, the derived trap
quantities: depth, oscillation frequency, ground-state size, Lamb-Dicke
parameters, and (blue lattice) the effective photon-scattering rate that
sets the dominant decoherence budget.  ``lattice_report`` builds every
report from a species and a lattice spec, which names its lattice.  The
module also holds the inputs of the coupling model in
``spinbus.interactions``: the four trap widths and the scattering
parameters.

Caption identities used throughout (all energies as frequencies in Hz):

    nu_osc = 2 sqrt(V_max * E_R_lattice)
    eta    = sqrt(E_R / nu_osc) = k * a_osc        (exact by convention)
    gamma_eff = eta^2 * (rabi^2 / (4 detuning^2)) * linewidth
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError
from .jsonio import key_text
from .record import Record
from .units import (
    ATOMIC_MASS,
    BOHR_RADIUS,
    H_PLANCK,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    ground_state_size,
    recoil_frequency,
)

CO2_WAVELENGTH_M = 10.6e-6


class AtomSpecies(Record):
    name: str
    mass_amu: float
    alpha0_a03: float     # dc polarizability, a0^3
    lambda0_nm: float     # resonance wavelength

    def _check(self):
        if min(self.mass_amu, self.alpha0_a03, self.lambda0_nm) <= 0:
            raise DomainError(f"species {key_text(self.name)}: all parameters must be positive")

    @property
    def mass_kg(self) -> float:
        return self.mass_amu * ATOMIC_MASS

    @property
    def lambda0_m(self) -> float:
        return self.lambda0_nm * 1e-9


SPECIES: dict[str, AtomSpecies] = {
    s.name: s
    for s in (
        AtomSpecies("Li", 6.9, 159.2, 670.0),
        AtomSpecies("Na", 23.0, 162.0, 589.0),
        AtomSpecies("K", 39.0, 292.8, 766.0),
        AtomSpecies("Rb", 87.0, 319.2, 780.0),
        AtomSpecies("Cs", 133.0, 402.2, 852.0),
    )
}


def get_species(name: str, registry: dict[str, AtomSpecies]) -> AtomSpecies:
    try:
        return registry[name]
    except KeyError:
        raise DomainError(f"unknown species {name!r}; known: {', '.join(map(key_text, sorted(registry)))}") from None


class RedLatticeSpec(Record):
    """CO2 lattice.  The depth is a fitted constant (Hz per a0^3 of
    polarizability), fitted once to Li's 181 MHz; the table's exact
    proportionality to alpha(0) makes that one number reproduce every
    species.  A first-principles depth alpha(0) E0^2/4 at the stated
    intensity comes out 24.26 times smaller for every species, a ratio that
    no unit factor explains; it is reported alongside, not used.
    """

    lattice = "red"  # the label of its reports; not annotated, so not a field
    wavelength_m: float = CO2_WAVELENGTH_M
    intensity_w_cm2: float = 1.0e6
    depth_calibration_hz_per_a03: float = 181e6 / 159.2

    def _check(self):
        if self.wavelength_m <= 0 or self.intensity_w_cm2 <= 0 or self.depth_calibration_hz_per_a03 <= 0:
            raise DomainError("red lattice parameters must be positive")

    def first_principles_depth_hz(self, species: AtomSpecies) -> float:
        """alpha(0) E0^2 / 4 with E0 from I = eps0 c E0^2 / 2, as a frequency."""
        e0_sq = 2.0 * self.intensity_w_cm2 * 1e4 / (VACUUM_PERMITTIVITY * SPEED_OF_LIGHT)
        alpha_si = species.alpha0_a03 * 4.0 * math.pi * VACUUM_PERMITTIVITY * BOHR_RADIUS**3
        return alpha_si * e0_sq / 4.0 / H_PLANCK

    def trap_inputs(self, species: AtomSpecies) -> tuple[float, float, float]:
        """The calibrated depth, the first-principles depth and the lattice wavelength."""
        depth = self.depth_calibration_hz_per_a03 * species.alpha0_a03
        return depth, self.first_principles_depth_hz(species), self.wavelength_m

    def gamma_eff_hz(self, eta: float) -> None:
        """None: the far-detuned lattice's photon scattering is not modelled."""
        return None


class BlueLatticeSpec(Record):
    """Near-resonant blue lattice driving the header atom.

    Frequencies are stored as the plain Hz numbers the architecture quotes
    (rabi ~ 1.6e10, detuning 2e12, linewidth 1e7).  The oscillation
    frequency follows from an effective depth rabi^2/(2 detuning), which is
    what the reference rows are mutually consistent with; the quoted depth
    formula rabi^2/(4 detuning) is reported alongside (factor 2 between the
    two is an angular/ordinary convention ambiguity in the source numbers).
    """

    lattice = "blue"
    rabi_hz: float = 1.6e10
    detuning_hz: float = 2.0e12
    linewidth_hz: float = 1.0e7

    def _check(self):
        if self.detuning_hz <= 0:
            raise DomainError("blue lattice must be blue-detuned: detuning > 0")
        if self.rabi_hz <= 0 or self.linewidth_hz <= 0:
            raise DomainError("rabi frequency and linewidth must be positive")

    @property
    def effective_depth_hz(self) -> float:
        return self.rabi_hz**2 / (2.0 * self.detuning_hz)

    @property
    def quoted_depth_hz(self) -> float:
        return self.rabi_hz**2 / (4.0 * self.detuning_hz)

    def trap_inputs(self, species: AtomSpecies) -> tuple[float, float, float]:
        """The effective depth, the quoted depth and the lattice wavelength: the
        lattice runs so close to resonance (detuning/carrier ~ 0.5%) that the
        resonance wavelength doubles as it, so the two Lamb-Dicke parameters
        coincide."""
        return self.effective_depth_hz, self.quoted_depth_hz, species.lambda0_m

    def gamma_eff_hz(self, eta: float) -> float:
        """The effective photon-scattering rate at Lamb-Dicke parameter ``eta``."""
        return eta**2 * (self.rabi_hz**2 / (4.0 * self.detuning_hz**2)) * self.linewidth_hz


class TrapReport(Record):
    """Derived trap quantities for one species in one lattice (SI + Hz)."""

    species: str
    lattice: str                  # the spec's lattice: "red" | "blue"
    v_max_hz: float               # depth entering nu_osc = 2 sqrt(V E_R)
    v_max_alt_hz: float           # red: first-principles depth; blue: quoted rabi^2/(4 delta)
    nu_osc_hz: float
    a_osc_m: float
    recoil_lattice_hz: float
    recoil_resonance_hz: float
    eta0: float                   # Lamb-Dicke vs the resonance wavelength
    eta_lattice: float            # Lamb-Dicke vs the lattice wavelength
    gamma_eff_hz: float | None = None

    @property
    def a_osc_a0(self) -> float:
        return self.a_osc_m / BOHR_RADIUS

    def as_table_row(self) -> dict:
        """Presentation units of the reference tables (MHz/kHz/a0)."""
        row = {
            "species": self.species,
            "lattice": self.lattice,
            "V_max_MHz": self.v_max_hz / 1e6,
            "nu_osc_kHz": self.nu_osc_hz / 1e3,
            "a_osc_a0": self.a_osc_a0,
            "E_R_kHz": self.recoil_resonance_hz / 1e3,
            "eta0": self.eta0,
            "eta_lattice": self.eta_lattice,
            "V_alt_MHz": self.v_max_alt_hz / 1e6,
        }
        if self.gamma_eff_hz is not None:
            row["gamma_eff_Hz"] = self.gamma_eff_hz
        return row


def lattice_report(species: AtomSpecies, spec: RedLatticeSpec | BlueLatticeSpec) -> TrapReport:
    """The trap report of ``species`` in the lattice ``spec`` describes, or a
    NumericalError naming both where the arithmetic leaves the float range.
    The inputs are checked records, so a DomainError from ``units`` here means
    a derived mass, wavelength or frequency underflowed to 0."""
    try:
        v, v_alt, wavelength_m = spec.trap_inputs(species)
        m = species.mass_kg
        er_lat = recoil_frequency(m, wavelength_m)
        er_res = recoil_frequency(m, species.lambda0_m)
        nu = 2.0 * math.sqrt(v * er_lat)
        eta0 = math.sqrt(er_res / nu)
        report = TrapReport(
            species=species.name, lattice=spec.lattice, v_max_hz=v, v_max_alt_hz=v_alt, nu_osc_hz=nu,
            a_osc_m=ground_state_size(m, nu), recoil_lattice_hz=er_lat, recoil_resonance_hz=er_res,
            eta0=eta0, eta_lattice=math.sqrt(er_lat / nu), gamma_eff_hz=spec.gamma_eff_hz(eta0),
        )
    except (OverflowError, ZeroDivisionError, DomainError):
        report = None
    if report is None or not all(math.isfinite(x) for x in vars(report).values() if isinstance(x, (int, float))):
        raise NumericalError(f"trap report is not a finite float for {species!r}, {spec!r}")
    return report


def lattice_reports(
    spec: RedLatticeSpec | BlueLatticeSpec, species_names: list[str] | None, registry: dict[str, AtomSpecies]
) -> list[TrapReport]:
    """The report of each named species of ``registry`` in ``spec``'s lattice,
    of every entry when none is named."""
    return [lattice_report(get_species(n, registry), spec) for n in species_names or registry]


# --- inputs of the coupling model (spinbus.interactions) ---------------------

class TrapGeometry(Record):
    """Gaussian ground-state sizes of the two traps, in a0.

    a_r and a_z are the combined widths sqrt(a_q^2 + a_h^2) per axis; the
    difference coordinate r_q - r_h is Gaussian with those sigmas.  The
    separation z0 of the trap centres is an argument of each coupling.
    """

    a_qr: float
    a_qz: float
    a_hr: float
    a_hz: float

    def _check(self):
        if min(self.a_qr, self.a_qz, self.a_hr, self.a_hz) <= 0:
            raise DomainError("trap sizes must be positive")

    @property
    def a_r(self) -> float:
        return math.hypot(self.a_qr, self.a_hr)

    @property
    def a_z(self) -> float:
        return math.hypot(self.a_qz, self.a_hz)


class ScatteringParams(Record):
    """Contact-interaction inputs: the triplet and singlet scattering lengths
    and the mass in the 4 pi hbar^2 a / M pseudo-potential prefactor (twice
    the reduced mass of the pair)."""

    a_t_a0: float
    a_s_a0: float
    mass_kg: float

    def _check(self):
        if self.mass_kg <= 0:
            raise DomainError("scattering mass must be positive")
