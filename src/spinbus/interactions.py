"""Spin-spin coupling strengths between two harmonically trapped atoms.

Two contributions enter the effective Ising coupling J(z0) between a
stationary qubit atom (q) and the movable header atom (h), whose trap
centers sit a distance z0 apart on the z axis:

* a contact exchange term, proportional to the triplet/singlet scattering
  length difference and to the overlap of the two Gaussian ground-state
  densities -- it decays as exp(-z0^2 / (2 a_z^2));
* the magnetic dipole-dipole term, ``GAMMA_E_A0_HZ`` (two Bohr-magneton
  moments at R = a0) times a0^3 times the ground-state average
  <(1/R^3)(1 - 3 (z/R)^2)>, which reduces to a single z-integral involving
  the complementary error function and falls off as -2/z0^3 at large z0.

Lengths in this module's public API are in Bohr radii (a0) unless a name
says otherwise; returned couplings are in Hz.  Each coupling takes a finite
z0 as an argument, a negative one included, since every coupling is even in z0.
"""

from __future__ import annotations

import math
import os
import sys
from functools import reduce
from operator import add

from .errors import DomainError, NumericalError
from .record import Record
from .traps import ScatteringParams, TrapGeometry
from .units import (
    BOHR_MAGNETON,
    BOHR_RADIUS,
    H_PLANCK,
    HBAR,
    VACUUM_PERMEABILITY,
    a0_to_m,
)

# The sigma_z sigma_z dipole strength gamma_e(a0) = (mu0/4pi) mu_B^2 / (h a0^3)
# of two Bohr-magneton moments at R = a0, in Hz (8.759e10 Hz), from the
# CODATA 2018 values in units.  It is the one dipole constant: the README
# says why the architecture's quoted value, an angular rate, is not kept.
GAMMA_E_A0_HZ = VACUUM_PERMEABILITY / (4 * math.pi) * BOHR_MAGNETON**2 / (H_PLANCK * BOHR_RADIUS**3)

# pairs of kernel evaluations per Monte Carlo chunk; a pair shares one draw (E, z)
_MC_CHUNK = 1 << 13
# the Monte Carlo oracle counts a kernel evaluation with |R| <= this radius (a0) as 0
MC_CORE_CUTOFF_A0 = 0.1
# checked before numpy is imported: sampling time grows with the count, and the cap is 1000 times scan's default
MAX_MC_SAMPLES = 10**9


class MonteCarloAverage(Record):
    """``dipolar_average_mc``'s estimate in m^-3 and the number of kernel
    evaluations inside its core cutoff, each counted as 0."""

    value_m3: float
    stderr_m3: float
    n_rejected: int

    def _check(self):
        if not math.isfinite(self.value_m3):
            raise DomainError("coupling value must be finite")


def _finite_z0(z0: float) -> float:
    if not math.isfinite(z0):
        raise DomainError("z0 must be finite")
    return z0


def exchange_strength(geom: TrapGeometry, z0: float, scat: ScatteringParams) -> float:
    """Contact exchange coupling in Hz.

    J_ex = (4 pi hbar^2 / M)(a_T - a_S) p_R(0) / h

    the pseudo-potential times p_R(0), the Gaussian density of r_q - r_h at
    the trap displacement (``contact_density_a0``, taken in m^-3 before it
    multiplies).  It is formed as an energy and then divided by h, so it
    reads 0.0 where that energy underflows, below about 7e-291 Hz.  The
    reference-trap form (4/sqrt(2 pi))(a_T - a_S)(a^2/a_r^2)(hbar omega/a_z)
    exp(-z0^2/(2 a_z^2)) / h, with a^2 = hbar/(2 M omega), is the same
    number: omega cancels, since a^2 hbar omega = hbar^2 / 2M.  The sign
    follows sign(a_T - a_S).
    """
    density_m3 = contact_density_a0(geom, z0) / BOHR_RADIUS**3
    value_hz = 4.0 * math.pi * HBAR**2 / scat.mass_kg * a0_to_m(scat.a_t_a0 - scat.a_s_a0) * density_m3 / H_PLANCK
    if not math.isfinite(value_hz):  # a scattering length or mass at the ends of the float range
        raise NumericalError(f"exchange coupling is not a finite float for {scat!r}")
    return value_hz


def _point_dipole_hz(pref: float, z0: float) -> float:
    """The point-dipole reference -2 gamma_e(z0) in Hz; a DomainError where
    (z0 a0)^3 leaves the float range."""
    try:
        value = -2.0 * pref / (z0 * BOHR_RADIUS) ** 3
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"z0 = {z0!r} a0 is out of range: the point-dipole reference is not a finite float")
    return value


# --- adaptive Gauss-Kronrod quadrature --------------------------------------
#
# QUADPACK's qk21 pair (Piessens et al., QUADPACK, Springer 1983): 21 Kronrod
# nodes on [-1, 1] with the 10-point Gauss rule embedded at the odd indices.
# Exact for polynomials of degree 31 (Kronrod) and 19 (Gauss).

_XK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same rules over all 21 nodes, in ascending order
KRONROD_NODES = tuple(-x for x in _XK[:-1]) + _XK[::-1]
KRONROD_WEIGHTS = _WK[:-1] + _WK[::-1]
GAUSS_WEIGHTS = _WG + _WG[::-1]  # at KRONROD_NODES[1::2]

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


class Quadrature(Record):
    value: float
    abserr: float
    subintervals: int
    converged: bool


def _gk21(f, lo: list, hi: list) -> tuple[list, list]:
    """Kronrod estimates and QUADPACK error estimates on panels [lo, hi]."""
    res, errs = [], []
    for a, b in zip(lo, hi):
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        fv = [f(centre + half * x) for x in KRONROD_NODES]
        # every float total here is summed left to right: sum() compensates since Python 3.12
        k = s_abs = g = s_asc = 0.0
        for w, v in zip(KRONROD_WEIGHTS, fv):
            k += w * v
            s_abs += w * abs(v)
        for w, v in zip(GAUSS_WEIGHTS, fv[1::2]):
            g += w * v
        mean = 0.5 * k
        for w, v in zip(KRONROD_WEIGHTS, fv):
            s_asc += w * abs(v - mean)
        h = abs(half)
        err, s_abs, s_asc = abs(k - g) * h, s_abs * h, s_asc * h
        if s_asc != 0.0 and err != 0.0:
            err = s_asc * min(1.0, (200.0 * err / s_asc) ** 1.5)
        if s_abs > _TINY / (50.0 * _EPS):
            err = max(50.0 * _EPS * s_abs, err)  # round-off floor
        res.append(k * h)
        errs.append(err)
    return res, errs


def adaptive_gk21(f, points, epsrel: float, limit: int) -> Quadrature:
    """Integral of ``f`` over [points[0], points[-1]], split at every point.

    ``f`` maps one float abscissa to one float value: the rule runs on
    plain ``math`` floats, node by node.  The panel with the largest error
    estimate is bisected until the summed estimate is at most ``epsrel`` *
    |value| (there is no absolute tolerance), until there are ``limit``
    panels, or until a sum is not finite (bisection cannot mend a sample
    that hit a singularity); ``converged`` is true only in the first case.
    """
    lo, hi = list(points[:-1]), list(points[1:])
    res, err = _gk21(f, lo, hi)
    while True:
        value, abserr = reduce(add, res, 0.0), reduce(add, err, 0.0)
        finite = math.isfinite(value) and math.isfinite(abserr)
        converged = finite and abserr <= epsrel * abs(value)
        if converged or not finite or len(res) >= limit:
            return Quadrature(value, abserr, len(res), converged)
        i = max(range(len(err)), key=err.__getitem__)
        mid = 0.5 * (lo[i] + hi[i])
        (res[i], r2), (err[i], e2) = _gk21(f, [lo[i], mid], [mid, hi[i]])
        lo.append(mid)
        hi.append(hi[i])
        hi[i] = mid
        res.append(r2)
        err.append(e2)


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

# bracket ~ -(4 a_r^4/|z|^3) * sum_k d_k (a_r/z)^(2k),  d_k = (-1)^k (2k+1)!! (k+1)
_SERIES = [(-1) ** k * math.prod(range(2 * k + 1, 0, -2)) * (k + 1) for k in range(13)]
_SERIES_SWITCH = 8.0  # in units of |z| / (sqrt(2) a_r)


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x), for 0 <= x < 8.

    Within 4e-15 (relative) of a 50-digit reference there; the kernel only
    calls it below ``_SERIES_SWITCH``.
    """
    return math.exp(x * x) * math.erfc(x)


def _axial_kernel(z: float, a_r: float) -> float:
    az = abs(z)
    x = az / (math.sqrt(2.0) * a_r)
    if x < _SERIES_SWITCH:
        bracket = 2.0 * az - (a_r * a_r + az * az) * math.sqrt(2.0 * math.pi) / a_r * _erfcx(x)
    else:
        t = (a_r / az) * (a_r / az)
        s = 0.0
        for d in reversed(_SERIES):
            s = s * t + d
        bracket = -4.0 * a_r**4 / (az * az * az) * s  # products, not **: inf rather than OverflowError
    return bracket / (2.0 * a_r**4)


def dipolar_average(geom: TrapGeometry, z0: float) -> float:
    """Ground-state average of (1/R^3)(1 - 3 (z/R)^2), in m^-3.

    The 1/R^3 core makes this average depend on the shape of the region
    excluded around R = 0.  The package's convention is the slab principal
    value, the one that integrating the transverse plane first gives: the
    spherical principal value minus the contact term (8 pi/3) p_R(0), with
    p_R(0) from ``contact_density_a0``.  This is a choice, not a property
    of the model; the compiler's default ``j_gate_hz`` is quoted in it.

    Adaptive Gauss-Kronrod quadrature, on plain ``math`` floats, of the
    closed-form z-integral over u = z - z0 in +- 10 a_z (the Gaussian weight
    makes the excluded tails < 1e-20 of the result), split at the |z| kink
    at u = -z0 when it lies inside; relative accuracy 1e-10 is enforced
    against the integrator's own error estimate.  The nodes are offsets from
    z0, so the Gaussian weight keeps full precision at any z0; nodes at
    z0 + u would be rounded to the ulp of z0.
    """
    a_r, a_z, z0 = geom.a_r, geom.a_z, _finite_z0(z0)

    def integrand(u: float) -> float:
        return math.exp(-(u * u) / (2.0 * a_z**2)) * _axial_kernel(z0 + u, a_r)

    half = 10.0 * a_z
    points = [-half, -z0, half] if -half < -z0 < half else [-half, half]
    try:
        quad = adaptive_gk21(integrand, points, epsrel=1e-10, limit=300)
    except (OverflowError, ZeroDivisionError):
        # Python floats raise where numpy arrays gave inf or nan: a width
        # whose powers leave float range
        raise NumericalError(f"dipolar quadrature cannot evaluate trap widths a_r={a_r} a0, a_z={a_z} a0") from None
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * a_z)
    value_a0 = pref * quad.value
    if not quad.converged:
        raise NumericalError(
            f"dipolar quadrature did not converge: value={value_a0} a0^-3, "
            f"abserr={pref * quad.abserr}, subintervals={quad.subintervals}"
        )
    return value_a0 / BOHR_RADIUS**3


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mc_chunk_sums(geom, z0, n_pairs, seed, chunks) -> list[tuple[float, float, int]]:
    """(sum s, sum s^2, rejected) for each chunk in ``chunks``, in that order,
    over its pairs of kernel evaluations: s is the sum of a pair's two kernel
    values, with an evaluation inside the core cutoff ``MC_CORE_CUTOFF_A0``
    counted as 0, and ``rejected`` the number of such evaluations.

    Draws R = r_q - r_h - z0 zhat = (a_r x, a_r y, a_z z - z0) for standard
    normals x, y, z, whose transverse part enters only as rho^2 = a_r^2 (x^2 +
    y^2) = 2 a_r^2 E with E ~ Exp(1) (chi-squared with 2 degrees of freedom):
    each chunk's generator fills E, then z, one of each per pair.  The normal
    law is symmetric, so the pair takes the axial offsets w = a_z z - z0 and
    w = -a_z z - z0 at the same rho^2.  Works in one float block of 6 * size,
    allocated here, with in-place ufuncs, which release the GIL, in the order
    of the plain expressions r2 = E (2 a_r^2) + w^2 and
    (1 - 3 w^2 / r2) / (r2 sqrt(r2)), so each chunk's sums are bit-identical
    to evaluating those on fresh arrays.
    """
    import numpy as np

    cut2 = MC_CORE_CUTOFF_A0**2
    block = np.empty(6 * min(_MC_CHUNK, n_pairs))
    rho2_per_e, a_z = 2.0 * geom.a_r * geom.a_r, geom.a_z
    sums = []
    for chunk in chunks:
        n = min(_MC_CHUNK, n_pairs - chunk * _MC_CHUNK)
        # each of r2, f and t holds a value of the first evaluation of every pair, then of the second
        r2, f, t = block[:6 * n].reshape(3, 2 * n)
        rho2, az = r2[n:], f[n:]  # until each becomes the second evaluation's r2 and w^2
        rng = np.random.default_rng([seed, chunk])
        rng.standard_exponential(out=rho2)
        rng.standard_normal(out=az)
        rho2 *= rho2_per_e
        az *= a_z
        np.subtract(az, z0, out=f[:n])
        np.subtract(-z0, az, out=az)  # -a_z z - z0, bit for bit
        np.square(f, out=f)
        np.add(rho2, f[:n], out=r2[:n])
        rho2 += f[n:]
        f *= 3.0
        f /= r2
        np.subtract(1.0, f, out=f)
        np.sqrt(r2, out=t)
        t *= r2
        f /= t
        rejected = 0
        if r2.min() <= cut2:  # count every evaluation inside the core as 0
            inside = r2 <= cut2
            rejected = int(np.count_nonzero(inside))
            f[inside] = 0.0
        s = f[:n]
        s += f[n:]
        np.square(s, out=t[:n])
        sums.append((float(s.sum()), float(t[:n].sum()), rejected))
    return sums


def contact_density_a0(geom: TrapGeometry, z0: float) -> float:
    """p_R(0), the Gaussian density of R = r_q - r_h - z0 zhat at R = 0, in a0^-3.

    Exactly 0.0 once |z0| > 38.6 a_z, where the Gaussian factor
    underflows.  Its users take it in m^-3; a NumericalError names the
    widths where it is not a finite float there, as where a_r^2 a_z leaves
    float range.
    """
    x = _finite_z0(z0) / geom.a_z
    try:
        density = math.exp(-0.5 * x * x) / ((2.0 * math.pi) ** 1.5 * geom.a_r * geom.a_r * geom.a_z)
    except ZeroDivisionError:
        density = math.inf
    if not math.isfinite(density / BOHR_RADIUS**3):
        raise NumericalError(f"contact density cannot evaluate trap widths a_r={geom.a_r} a0, a_z={geom.a_z} a0")
    return density


def dipolar_average_mc(geom: TrapGeometry, z0: float, n_samples: int, seed: int) -> MonteCarloAverage:
    """Monte Carlo oracle for ``dipolar_average``, in m^-3.

    Samples R = r_q - r_h - z0 zhat directly, as one anisotropic Gaussian
    with the combined widths (a_r, a_r, a_z), and averages the dipolar
    kernel over it.  The kernel depends on the transverse part of R only
    through rho^2, which is drawn as 2 a_r^2 E with E ~ Exp(1), the law of
    a_r^2 (x^2 + y^2) for standard normals x and y.  Each draw (E, z) gives
    a pair of kernel evaluations, at the axial offsets a_z z - z0 and
    -a_z z - z0: the reflection z -> -z keeps the normal law, so the second
    evaluation costs no draw (antithetic variates; Hammersley & Morton, Proc.
    Camb. Phil. Soc. 52, 449 (1956)).  ``n_samples`` counts evaluations; an
    odd count evaluates one more.  An evaluation with |R| <=
    ``MC_CORE_CUTOFF_A0`` counts as 0 and is counted in ``n_rejected``: the
    1/R^3 kernel has a divergent variance contribution from the overlap
    region.  The sample mean is then the kernel's integral outside a small
    sphere, the spherical principal value, whose core contributes nothing by
    the angular average.  ``dipolar_average`` is the slab principal value,
    so the spherical mean has the contact term (8 pi/3) p_R(0) subtracted
    (``contact_density_a0``; Jackson, Classical Electrodynamics, 3rd ed.,
    sec. 5.6), and both functions return the same slab average.  The pair
    is the sampling unit of the stderr: with s the sum of a pair's two
    evaluations, the mean is sum s / 2P and the stderr that of the pair
    means s / 2 over the P pairs, sqrt(sum (s - 2 mean)^2 / ((P - 1) P)) / 2.

    Deterministic for a fixed non-negative integer seed: pairs are drawn
    in fixed-size chunks, each chunk's generator seeded by
    (seed, chunk_index).  The chunks run on one worker per usable CPU (at
    most one per chunk): worker 0 in the calling thread, each other one on a
    thread of its own.  Worker w takes chunks w, w+k, ... and reuses one
    buffer of about 0.4 MB that it allocates; an exception that a worker
    raises is raised here, once every worker has finished.  The per-chunk
    sums are added in chunk order, so the result is bit-identical whatever
    the number of workers.  The sample count (an integer from 10^4
    to ``MAX_MC_SAMPLES``) and the seed are checked before numpy is imported.
    """
    import numbers

    _finite_z0(z0)
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise DomainError(f"MC sample count must be an integer, got {n_samples!r}")
    if n_samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {n_samples}")
    if n_samples > MAX_MC_SAMPLES:
        raise DomainError(f"need at most 1e9 samples, got {n_samples}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"MC seed must be a non-negative integer, got {seed!r}")
    import threading

    import numpy as np

    n_pairs = (int(n_samples) + 1) // 2
    n_chunks = (n_pairs + _MC_CHUNK - 1) // _MC_CHUNK
    workers = min(n_chunks, _usable_cpus())
    per_worker: list = [None] * workers  # each worker's chunk sums, or the exception it raised

    def work(w: int) -> None:
        try:
            # a width out of float range is refused below; an evaluation inside the core may divide by zero
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                per_worker[w] = _mc_chunk_sums(geom, z0, n_pairs, seed, range(w, n_chunks, workers))
        except BaseException as error:
            per_worker[w] = error

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for result in per_worker:
        if isinstance(result, BaseException):
            raise result

    total = total_sq = 0.0
    rejected = 0
    for chunk in range(n_chunks):
        s, s2, r = per_worker[chunk % workers][chunk // workers]
        total += s
        total_sq += s2
        rejected += r
    if not math.isfinite(total_sq):  # a width whose square leaves float range
        raise NumericalError(f"Monte Carlo oracle cannot evaluate trap widths a_r={geom.a_r} a0, a_z={geom.a_z} a0")
    if rejected == 2 * n_pairs:
        raise NumericalError("all samples rejected by the core cutoff")
    mean = total / (2 * n_pairs)
    spread = max(0.0, total_sq - 2.0 * mean * (2.0 * total) + mean * mean * (4.0 * n_pairs))
    stderr = math.sqrt(spread / ((n_pairs - 1) * n_pairs)) / 2.0
    return MonteCarloAverage(
        value_m3=(mean - 8.0 * math.pi / 3.0 * contact_density_a0(geom, z0)) / BOHR_RADIUS**3,
        stderr_m3=stderr / BOHR_RADIUS**3,
        n_rejected=rejected,
    )


SCAN_COLUMNS = ("z0_a0", "J_exchange_Hz", "J_dipolar_Hz", "J_total_Hz", "method", "stderr_Hz", "J_pointdipole_Hz")


def scan_couplings(
    geom: TrapGeometry,
    scat: ScatteringParams,
    z0_values_a0,
    mc_samples: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Effective Ising coupling J(z0) in Hz, exchange plus averaged dipole,
    over a z0 scan; one row dict per z0 with the ``SCAN_COLUMNS``, whose
    ``stderr_Hz`` is None for quadrature and whose ``J_pointdipole_Hz`` is
    the point-dipole reference -2 gamma_e(z0), checked for every z0 first.

    The dipolar part is Monte Carlo with ``mc_samples`` per point (point i
    seeded ``seed + i``) when ``mc_samples`` is given, quadrature otherwise.
    """
    pref = GAMMA_E_A0_HZ * BOHR_RADIUS**3  # gamma_e(R) R^3 in Hz m^3; multiplies the dipolar average (m^-3)
    z0s = [float(z0) for z0 in z0_values_a0]
    point_dipole = [_point_dipole_hz(pref, z0) for z0 in z0s]
    rows = []
    for i, (z0, point) in enumerate(zip(z0s, point_dipole)):
        ex = exchange_strength(geom, z0, scat)
        if mc_samples is None:
            dip, stderr, method = pref * dipolar_average(geom, z0), None, "quadrature"
        else:
            part = dipolar_average_mc(geom, z0, mc_samples, seed + i)
            dip, stderr, method = pref * part.value_m3, pref * part.stderr_m3, "monte_carlo"
        rows.append(dict(zip(SCAN_COLUMNS, (z0, ex, dip, ex + dip, method, stderr, point))))
    return rows
