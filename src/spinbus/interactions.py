"""Spin-spin coupling strengths between two harmonically trapped atoms.

Two contributions enter the effective Ising coupling J(z0) between a
stationary qubit atom (q) and the movable header atom (h), whose trap
centers sit a distance z0 apart on the z axis:

* a contact exchange term, proportional to the triplet/singlet scattering
  length difference and to the overlap of the two Gaussian ground-state
  densities -- it decays as exp(-z0^2 / (2 a_z^2));
* the magnetic electron dipole-dipole term, whose ground-state average
  <(1/R^3)(1 - 3 (z/R)^2)> reduces to a single z-integral involving the
  complementary error function and falls off as -2/z0^3 at large z0.

Lengths in this module's public API are in Bohr radii (a0) unless a name
says otherwise; returned couplings are in Hz.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .units import (
    BOHR_MAGNETON,
    BOHR_RADIUS,
    H_PLANCK,
    HBAR,
    VACUUM_PERMEABILITY,
    a0_to_m,
)

# Dipole strength at R = a0.  "calibrated" is the architecture's quoted
# constant; "first_principles" evaluates (mu0/4pi) mu_B^2 / (h R^3), which
# comes out ~5.7x smaller.  Both modes are exposed; the discrepancy is a
# property of the quoted constant, not of this implementation.
GAMMA_E_CALIBRATED_HZ = 5.0e11
GAMMA_E_FIRST_PRINCIPLES_HZ = (
    VACUUM_PERMEABILITY / (4 * math.pi) * BOHR_MAGNETON**2 / (H_PLANCK * BOHR_RADIUS**3)
)

GAMMA_MODES = ("calibrated", "first_principles")

_MC_CHUNK = 1 << 17


@dataclass(frozen=True)
class TrapGeometry:
    """Gaussian ground-state sizes of the two traps and their separation, in a0.

    a_r and a_z are the combined widths sqrt(a_q^2 + a_h^2) per axis; the
    difference coordinate r_q - r_h is Gaussian with those sigmas.
    """

    a_qr: float
    a_qz: float
    a_hr: float
    a_hz: float
    z0: float

    def __post_init__(self):
        if min(self.a_qr, self.a_qz, self.a_hr, self.a_hz) <= 0:
            raise DomainError("trap sizes must be positive")
        if not math.isfinite(self.z0):
            raise DomainError("z0 must be finite")
        # z0 >= 0 is the working convention; negative values are accepted
        # because every coupling here is even in z0

    @property
    def a_r(self) -> float:
        return math.hypot(self.a_qr, self.a_hr)

    @property
    def a_z(self) -> float:
        return math.hypot(self.a_qz, self.a_hz)


@dataclass(frozen=True)
class ScatteringParams:
    """Contact-interaction inputs: scattering lengths and the reference trap.

    ``mass_kg`` is the mass appearing in the 4 pi hbar^2 a / M
    pseudo-potential prefactor (twice the reduced mass of the pair).  The
    reference ground-state size is derived from (mass, omega_ref) with the
    package convention a = sqrt(hbar / (2 M omega)), which is exactly the
    normalization that makes the displayed exchange formula equal the
    Gaussian-overlap integral.
    """

    a_t_a0: float
    a_s_a0: float
    mass_kg: float
    omega_ref: float  # rad/s

    def __post_init__(self):
        if self.mass_kg <= 0 or self.omega_ref <= 0:
            raise DomainError("mass and reference trap frequency must be positive")

    @property
    def a_ref_m(self) -> float:
        return math.sqrt(HBAR / (2.0 * self.mass_kg * self.omega_ref))


@dataclass(frozen=True)
class CouplingResult:
    value_hz: float
    method: str  # quadrature | monte_carlo | closed_form
    stderr_hz: float | None = None
    n_rejected: int = 0

    def __post_init__(self):
        if (self.method == "monte_carlo") != (self.stderr_hz is not None):
            raise DomainError("stderr is present exactly when method is monte_carlo")
        if not math.isfinite(self.value_hz):
            raise DomainError("coupling value must be finite")


def exchange_strength(geom: TrapGeometry, scat: ScatteringParams) -> CouplingResult:
    """Contact exchange coupling in Hz.

    J_ex = (4/sqrt(2 pi)) (a_T - a_S) (a^2/a_r^2) (hbar omega / a_z)
           * exp(-z0^2 / (2 a_z^2)) / h

    Equivalently (4 pi hbar^2 / M)(a_T - a_S) times the Gaussian density of
    r_q - r_h evaluated at the trap displacement; the two forms agree to
    machine precision.  The sign follows sign(a_T - a_S).
    """
    a_r, a_z = a0_to_m(geom.a_r), a0_to_m(geom.a_z)
    d_scat = a0_to_m(scat.a_t_a0 - scat.a_s_a0)
    a_ref = scat.a_ref_m
    z0 = a0_to_m(geom.z0)
    energy = (
        4.0 / math.sqrt(2.0 * math.pi)
        * d_scat
        * (a_ref**2 / a_r**2)
        * (HBAR * scat.omega_ref / a_z)
        * math.exp(-(z0**2) / (2.0 * a_z**2))
    )
    return CouplingResult(value_hz=energy / H_PLANCK, method="closed_form")


def dipole_strength(r_a0: float, mode: str = "calibrated") -> CouplingResult:
    """Bare electron dipole-dipole strength gamma_e(R) = gamma_e(a0) (a0/R)^3 in Hz."""
    if r_a0 <= 0:
        raise DomainError(f"separation must be positive, got {r_a0}")
    return CouplingResult(
        value_hz=_gamma_at_a0(mode) / r_a0**3, method="closed_form"
    )


def gamma_prefactor_hz_m3(mode: str = "calibrated") -> float:
    """gamma_e(R) * R^3 in Hz m^3; multiplies the dipolar average (m^-3)."""
    return _gamma_at_a0(mode) * BOHR_RADIUS**3


def _gamma_at_a0(mode: str) -> float:
    if mode == "calibrated":
        return GAMMA_E_CALIBRATED_HZ
    if mode == "first_principles":
        return GAMMA_E_FIRST_PRINCIPLES_HZ
    raise DomainError(f"gamma mode must be one of {GAMMA_MODES}, got {mode!r}")


# --- Gaussian-averaged anisotropic dipolar integral ------------------------
#
# <(1/R^3)(1 - 3 (z.R)^2/R^2)> over R ~ N(z0 zhat, diag(a_r^2, a_r^2, a_z^2)).
# The transverse integral is analytic; what remains is a 1-D Gaussian
# average over z of
#
#   I(z) = (1/(2 a_r^4)) [ 2|z| - (a_r^2 + z^2) (sqrt(2 pi)/a_r)
#                           * exp(z^2/(2 a_r^2)) erfc(|z|/(sqrt 2 a_r)) ]
#
# evaluated with erfcx to avoid overflow, switching to the asymptotic
# series of the bracket at large |z|/a_r where the two terms cancel to
# O((a_r/z)^4) and direct evaluation loses precision.

def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# bracket ~ -(4 a_r^4/|z|^3) * sum_k d_k (a_r/z)^(2k),  d_k = (-1)^k (2k+1)!! (k+1)
_SERIES = [(-1) ** k * _double_factorial(2 * k + 1) * (k + 1) for k in range(13)]
_SERIES_SWITCH = 8.0  # in units of |z| / (sqrt(2) a_r)


def _axial_kernel(z: float, a_r: float, erfcx) -> float:
    az = abs(z)
    x = az / (math.sqrt(2.0) * a_r)
    if x < _SERIES_SWITCH:
        bracket = 2.0 * az - (a_r * a_r + z * z) * math.sqrt(2.0 * math.pi) / a_r * erfcx(x)
    else:
        t = (a_r / az) ** 2
        s = 0.0
        for d in reversed(_SERIES):
            s = s * t + d
        bracket = -4.0 * a_r**4 / az**3 * s
    return bracket / (2.0 * a_r**4)


def dipolar_average(geom: TrapGeometry) -> CouplingResult:
    """Ground-state average of (1/R^3)(1 - 3 (z/R)^2), in m^-3.

    Adaptive Gauss-Kronrod quadrature of the closed-form z-integral over
    z0 +- 10 a_z (the Gaussian weight makes the excluded tails < 1e-20 of
    the result); relative accuracy 1e-8 is enforced against the
    integrator's own error estimate.  scipy is imported here, not at module
    level, so that commands which never integrate do not pay its import.
    """
    from scipy import integrate, special

    a_r, a_z, z0 = geom.a_r, geom.a_z, geom.z0

    def integrand(z: float) -> float:
        return math.exp(-((z - z0) ** 2) / (2.0 * a_z**2)) * _axial_kernel(z, a_r, special.erfcx)

    lo, hi = z0 - 10.0 * a_z, z0 + 10.0 * a_z
    points = [0.0] if lo < 0.0 < hi else None  # |z| kink
    val, abserr, info, *trouble = integrate.quad(
        integrand, lo, hi, points=points, limit=300, epsabs=0.0, epsrel=1e-10,
        full_output=1,
    )
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * a_z)
    value_a0 = pref * val
    # absolute floor for geometries where the average crosses zero
    floor_a0 = 1e-12 * 2.0 / max(z0, a_r, a_z) ** 3
    if trouble or pref * abserr > max(1e-8 * abs(value_a0), floor_a0):
        raise NumericalError(
            f"dipolar quadrature did not converge: value={value_a0} a0^-3, "
            f"abserr={pref * abserr}, subintervals={info['last']}"
            + (f", message={trouble[0]}" if trouble else "")
        )
    return CouplingResult(value_hz=value_a0 / BOHR_RADIUS**3, method="quadrature")


def dipolar_average_mc(
    geom: TrapGeometry,
    n_samples: int,
    seed: int,
    core_cutoff_a0: float = 0.1,
) -> CouplingResult:
    """Monte Carlo oracle for ``dipolar_average``, in m^-3.

    Samples the two anisotropic Gaussian ground-state densities directly
    and averages the dipolar kernel of R = r_q - r_h - z0 zhat.  Samples
    with |R| below the core cutoff are rejected and counted: the 1/R^3
    kernel has a divergent variance contribution from the measure-zero
    overlap region (its mean contribution vanishes by the angular average).

    Deterministic for a fixed seed: samples are drawn in fixed-size chunks,
    each chunk's generator seeded by (seed, chunk_index), so the result is
    independent of how chunks are scheduled.
    """
    if n_samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {n_samples}")
    sigma_q = np.array([geom.a_qr, geom.a_qr, geom.a_qz])
    sigma_h = np.array([geom.a_hr, geom.a_hr, geom.a_hz])
    cut2 = core_cutoff_a0**2

    total = 0.0
    total_sq = 0.0
    kept = 0
    rejected = 0
    n_chunks = (n_samples + _MC_CHUNK - 1) // _MC_CHUNK
    for chunk in range(n_chunks):
        n = min(_MC_CHUNK, n_samples - chunk * _MC_CHUNK)
        rng = np.random.default_rng([seed, chunk])
        r = rng.standard_normal((n, 3)) * sigma_q - rng.standard_normal((n, 3)) * sigma_h
        r[:, 2] -= geom.z0
        r2 = np.einsum("ij,ij->i", r, r)
        keep = r2 > cut2
        rejected += int(n - keep.sum())
        r2 = r2[keep]
        f = (1.0 - 3.0 * r[keep, 2] ** 2 / r2) / (r2 * np.sqrt(r2))
        total += float(f.sum())
        total_sq += float((f * f).sum())
        kept += int(keep.sum())
    if kept < 2:
        raise NumericalError("all samples rejected by the core cutoff")
    mean = total / kept
    var = max(0.0, (total_sq - kept * mean * mean) / (kept - 1))
    stderr = math.sqrt(var / kept)
    return CouplingResult(
        value_hz=mean / BOHR_RADIUS**3,
        method="monte_carlo",
        stderr_hz=stderr / BOHR_RADIUS**3,
        n_rejected=rejected,
    )


def effective_J(
    geom: TrapGeometry,
    scat: ScatteringParams,
    gamma_mode: str = "calibrated",
    include_exchange: bool = True,
    include_dipole: bool = True,
    mc_samples: int = 0,
    seed: int = 0,
) -> CouplingResult:
    """Effective Ising coupling J(z0) in Hz: exchange plus averaged dipole.

    ``include_exchange=False`` models the two-different-species case, where
    the contact exchange is strongly suppressed.  With ``mc_samples`` > 0
    the dipolar part uses the Monte Carlo estimator instead of quadrature
    (stderr propagates to the result).
    """
    value = 0.0
    stderr = None
    method = "closed_form"
    if include_exchange:
        value += exchange_strength(geom, scat).value_hz
    if include_dipole:
        pref = gamma_prefactor_hz_m3(gamma_mode)
        if mc_samples:
            part = dipolar_average_mc(geom, mc_samples, seed)
            stderr = pref * part.stderr_hz
            method = "monte_carlo"
        else:
            part = dipolar_average(geom)
            method = "quadrature"
        value += pref * part.value_hz
    return CouplingResult(value_hz=value, method=method, stderr_hz=stderr)


# --- scan output (consumed by the CLI's coupling-scan command) -------------

SCAN_FIELDS = ("z0_a0", "J_exchange_Hz", "J_dipolar_Hz", "J_total_Hz", "method", "stderr_Hz")


def scan_couplings(
    geom: TrapGeometry,
    scat: ScatteringParams,
    z0_values_a0,
    gamma_mode: str = "calibrated",
    mc_samples: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Coupling components over a z0 scan; one dict per ``SCAN_FIELDS`` row."""
    rows = []
    pref = gamma_prefactor_hz_m3(gamma_mode)
    for i, z0 in enumerate(z0_values_a0):
        g = TrapGeometry(geom.a_qr, geom.a_qz, geom.a_hr, geom.a_hz, float(z0))
        ex = exchange_strength(g, scat).value_hz
        if mc_samples:
            part = dipolar_average_mc(g, mc_samples, seed + i)
            dip, err, method = pref * part.value_hz, pref * part.stderr_hz, "monte_carlo"
        else:
            dip, err, method = pref * dipolar_average(g).value_hz, None, "quadrature"
        rows.append(
            {
                "z0_a0": float(z0),
                "J_exchange_Hz": ex,
                "J_dipolar_Hz": dip,
                "J_total_Hz": ex + dip,
                "method": method,
                "stderr_Hz": err,
            }
        )
    return rows


def scan_csv(rows: list[dict], extra_fields: tuple = ()) -> str:
    """Render scan rows as CSV text with the documented column order."""
    fields = SCAN_FIELDS + tuple(extra_fields)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(["" if row.get(f) is None else repr(row[f]) if isinstance(row[f], float) else row[f] for f in fields])
    return buf.getvalue()
