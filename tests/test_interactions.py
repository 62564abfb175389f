import math
import statistics
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants as codata

from spinbus import interactions as ia
from spinbus import units
from spinbus.cli import MC_SEED, main
from spinbus.errors import DomainError, NumericalError

REF_GEOM = ia.TrapGeometry(a_qr=400.0, a_qz=400.0, a_hr=100.0, a_hz=100.0)
REF_Z0 = 1000.0
RB_SCAT = ia.ScatteringParams(a_t_a0=110.0, a_s_a0=10.0, mass_kg=87 * units.ATOMIC_MASS)


def shell_average(a_a0: float, z0_a0: float) -> float:
    """Independent oracle for the isotropic combined geometry, in a0^-3.

    The dipolar kernel is harmonic away from the origin with zero monopole
    moment, so spherical shells of the difference density centered at z0
    contribute the point-dipole value when they exclude the origin and
    nothing when they enclose it:  <T> = -(2/z0^3) P(chi3 < z0/a).
    """
    x = z0_a0 / a_a0
    inside = math.erf(x / math.sqrt(2)) - math.sqrt(2 / math.pi) * x * math.exp(-x * x / 2)
    return -2.0 / z0_a0**3 * inside


def overlap_density_m3(geom: ia.TrapGeometry, z0: float) -> float:
    """Gaussian density of r_q - r_h at the trap displacement z0, 1/m^3."""
    a_r, a_z = units.a0_to_m(geom.a_r), units.a0_to_m(geom.a_z)
    z0 = units.a0_to_m(z0)
    return math.exp(-(z0**2) / (2 * a_z**2)) / ((2 * math.pi) ** 1.5 * a_r**2 * a_z)


# --- exchange ---------------------------------------------------------------

def test_exchange_equals_gaussian_overlap_form():
    # the displayed prefactor formula and the bare contact-overlap integral
    # are one and the same once a^2 = hbar/(2 M omega)
    rng = np.random.default_rng(11)
    for _ in range(10):
        sizes = rng.uniform(80, 500, size=4)
        z0 = rng.uniform(0, 1500)
        geom = ia.TrapGeometry(*sizes)
        got = ia.exchange_strength(geom, z0, RB_SCAT)
        expected = (
            4 * math.pi * units.HBAR**2 / RB_SCAT.mass_kg
            * units.a0_to_m(RB_SCAT.a_t_a0 - RB_SCAT.a_s_a0)
            * overlap_density_m3(geom, z0)
            / units.H_PLANCK
        )
        assert got == pytest.approx(expected, rel=1e-12)


def test_exchange_far_limit_and_z0_zero():
    far = ia.TrapGeometry(400, 400, 100, 100)
    assert abs(ia.exchange_strength(far, 50_000.0, RB_SCAT)) < 1e-300
    near = ia.TrapGeometry(400, 400, 100, 100)
    a_r = units.a0_to_m(near.a_r)
    a_z = units.a0_to_m(near.a_z)
    # the reference-trap form with a_ref^2 hbar omega_ref = hbar^2 / 2M
    expected = (
        4 / math.sqrt(2 * math.pi)
        * units.a0_to_m(100.0)
        * (units.HBAR**2 / (2 * RB_SCAT.mass_kg))
        / (a_r**2 * a_z)
        / units.H_PLANCK
    )
    assert ia.exchange_strength(near, 0.0, RB_SCAT) == pytest.approx(expected, rel=1e-12)


def test_exchange_sign_follows_scattering_difference():
    flipped = ia.ScatteringParams(10.0, 110.0, RB_SCAT.mass_kg)
    assert ia.exchange_strength(REF_GEOM, REF_Z0, RB_SCAT) > 0
    assert ia.exchange_strength(REF_GEOM, REF_Z0, flipped) < 0


def test_exchange_beyond_float_range_is_a_numerical_error():
    # (4 pi hbar^2 / M)(a_T - a_S) p_R(0) / h is about 8e310 Hz here
    huge = ia.ScatteringParams(1.7e308, 10.0, RB_SCAT.mass_kg)
    with pytest.raises(NumericalError, match=r"exchange coupling is not a finite float for ScatteringParams\(a_t_a0="):
        ia.exchange_strength(REF_GEOM, REF_Z0, huge)


def test_exchange_gaussian_decay_slope():
    # log J is linear in z0^2 with slope -1/(2 a_z^2)
    z0s = np.array([800.0, 1000.0, 1200.0])
    vals = [ia.exchange_strength(ia.TrapGeometry(400, 400, 100, 100), z, RB_SCAT) for z in z0s]
    slope = np.polyfit(z0s**2, np.log(np.abs(vals)), 1)[0]
    assert slope == pytest.approx(-1.0 / (2 * REF_GEOM.a_z**2), rel=1e-6)


def test_exchange_against_delta_counting_monte_carlo():
    # independent oracle: estimate <delta3(r_q - r_h - z0 z)> by counting
    # samples of the difference vector inside a small ball around z0 zhat
    geom, z0 = ia.TrapGeometry(300, 300, 150, 150), 350.0
    eps = 0.15 * min(geom.a_r, geom.a_z)
    n = 400_000
    rng = np.random.default_rng(2024)
    rq = rng.standard_normal((n, 3)) * np.array([geom.a_qr, geom.a_qr, geom.a_qz])
    rh = rng.standard_normal((n, 3)) * np.array([geom.a_hr, geom.a_hr, geom.a_hz])
    d = rq - rh
    d[:, 2] -= z0
    hits = int(np.count_nonzero(np.einsum("ij,ij->i", d, d) < eps * eps))
    assert hits > 50
    density_a0 = hits / (n * 4.0 / 3.0 * math.pi * eps**3)
    density_m = density_a0 / units.BOHR_RADIUS**3
    j_mc = (
        4 * math.pi * units.HBAR**2 / RB_SCAT.mass_kg
        * units.a0_to_m(RB_SCAT.a_t_a0 - RB_SCAT.a_s_a0)
        * density_m / units.H_PLANCK
    )
    j = ia.exchange_strength(geom, z0, RB_SCAT)
    tol = 3.0 / math.sqrt(hits) + 0.03  # counting noise + O(eps^2) ball bias
    assert j_mc == pytest.approx(j, rel=tol)


# --- bare dipole strength ---------------------------------------------------

def dipole_strength_hz(r_a0):
    """gamma_e(R) = gamma_e(a0) (a0/R)^3 from the package constant, in Hz."""
    return ia.GAMMA_E_A0_HZ * units.BOHR_RADIUS**3 / units.a0_to_m(r_a0) ** 3


def test_dipole_strength_is_the_codata_expression_in_hz():
    # (mu0/4pi) mu_B^2 / (h a0^3) at 30 digits, from the CODATA 2018 digits of units, h = 2 pi hbar
    with mpmath.workdps(30):
        mu0 = mpmath.mpf("1.25663706212e-6")
        mu_b = mpmath.mpf("9.2740100783e-24")
        h = 2 * mpmath.pi * mpmath.mpf("1.054571817e-34")
        a0 = mpmath.mpf("5.29177210903e-11")
        expected = float(mu0 / (4 * mpmath.pi) * mu_b**2 / (h * a0**3))
    assert ia.GAMMA_E_A0_HZ == pytest.approx(expected, rel=1e-15)


def test_dipole_strength_first_principles():
    expected = (
        codata.mu_0 / (4 * math.pi) * codata.value("Bohr magneton") ** 2
        / (codata.h * codata.value("Bohr radius") ** 3)
    )
    assert dipole_strength_hz(1.0) == pytest.approx(expected, rel=1e-6)
    assert dipole_strength_hz(1000.0) == pytest.approx(expected / 1e9, rel=1e-6)


def test_erfcx_matches_high_precision_reference_over_kernel_range():
    # the kernel calls erfcx only below the series switch at x = 8
    x = np.linspace(0.0, ia._SERIES_SWITCH, 2001)[:-1]
    with mpmath.workdps(50):
        for xi in x.tolist():
            g = ia._erfcx(xi)
            ref = float(mpmath.erfc(xi) * mpmath.exp(mpmath.mpf(xi) ** 2))
            assert g == pytest.approx(ref, rel=1e-14)


# --- adaptive Gauss-Kronrod rule ---------------------------------------------

def _monomial_integral(k: int) -> float:
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


def test_gk21_rules_integrate_monomials_exactly_up_to_their_degree():
    x = np.asarray(ia.KRONROD_NODES)
    wk, wg = np.asarray(ia.KRONROD_WEIGHTS), np.asarray(ia.GAUSS_WEIGHTS)
    for k in range(32):
        assert abs(wk @ x**k - _monomial_integral(k)) <= 1e-15
    for k in range(20):
        assert abs(wg @ x[1::2] ** k - _monomial_integral(k)) <= 1e-15
    # and no further: the next even degree is visibly off
    assert abs(wk @ x**32 - _monomial_integral(32)) > 1e-13
    assert abs(wg @ x[1::2] ** 20 - _monomial_integral(20)) > 1e-7


def test_gauss_rule_matches_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(ia.KRONROD_NODES[1::2] - nodes)) <= 1e-15
    assert np.max(np.abs(ia.GAUSS_WEIGHTS - weights)) <= 1e-15


def test_adaptive_gk21_converges_on_resolvable_integrands():
    quad = ia.adaptive_gk21(lambda x: np.cos(1e3 * x), [0.0, 1.0], epsrel=1e-10, limit=300)
    assert quad.converged and quad.subintervals < 300
    assert quad.value == pytest.approx(math.sin(1e3) / 1e3, rel=1e-10)
    # an integrable singularity at a breakpoint is resolved by bisection
    quad = ia.adaptive_gk21(lambda x: 1 / np.sqrt(np.abs(x)), [-1.0, 0.0, 1.0], epsrel=1e-10, limit=300)
    assert quad.converged
    assert quad.value == pytest.approx(4.0, rel=1e-10)


def test_adaptive_gk21_reports_non_convergence():
    # without the breakpoint the centre node samples the singularity itself
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = ia.adaptive_gk21(lambda x: 1 / np.sqrt(np.abs(x)), [-1.0, 1.0], epsrel=1e-10, limit=300)
    assert not quad.converged
    # 1600 periods do not fit into 300 panels: the limit ends the bisection
    quad = ia.adaptive_gk21(lambda x: np.cos(1e4 * x), [0.0, 1.0], epsrel=1e-10, limit=300)
    assert not quad.converged
    assert quad.subintervals == 300
    assert math.isfinite(quad.value) and quad.abserr > 1e-10 * abs(quad.value)


def test_dipolar_average_raises_when_the_integrator_gives_up(monkeypatch):
    real = ia.adaptive_gk21

    def limit_reached(*args, **kwargs):
        return real(*args, **kwargs).replace(subintervals=300, converged=False)

    monkeypatch.setattr(ia, "adaptive_gk21", limit_reached)
    with pytest.raises(NumericalError, match=r"abserr=.*subintervals=300"):
        ia.dipolar_average(REF_GEOM, REF_Z0)


def test_dipolar_average_enforces_a_1e_10_relative_tolerance(monkeypatch):
    # converged means an error estimate of at most 1e-10 |value|, so the
    # quadrature needs no looser bound of its own
    calls, real = [], ia.adaptive_gk21

    def recorded(*args, **kwargs):
        calls.append((kwargs["epsrel"], quad := real(*args, **kwargs)))
        return quad

    monkeypatch.setattr(ia, "adaptive_gk21", recorded)
    for z0 in (1.0, REF_Z0, 1e4):
        ia.dipolar_average(REF_GEOM, z0)
    assert len(calls) == 3
    for epsrel, quad in calls:
        assert epsrel == 1e-10 and quad.converged and quad.abserr <= 1e-10 * abs(quad.value)


# --- Gaussian-averaged dipolar integral -------------------------------------

def test_dipolar_average_matches_shell_oracle_isotropic():
    for aq, ah in ((400.0, 100.0), (250.0, 250.0), (120.0, 300.0)):
        a = math.hypot(aq, ah)
        for z0 in (0.3 * a, a, 2.43 * a, 6.0 * a, 12.0 * a):
            geom = ia.TrapGeometry(aq, aq, ah, ah)
            got = ia.dipolar_average(geom, z0) * units.BOHR_RADIUS**3
            assert got == pytest.approx(shell_average(a, z0), rel=1e-9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    aq=st.floats(1.0, 600.0),
    ah=st.floats(1.0, 600.0),
    ratio=st.floats(0.3, 20.0),
)
def test_dipolar_average_matches_shell_oracle_property(aq, ah, ratio):
    a = math.hypot(aq, ah)
    geom = ia.TrapGeometry(aq, aq, ah, ah)
    got = ia.dipolar_average(geom, ratio * a) * units.BOHR_RADIUS**3
    assert got == pytest.approx(shell_average(a, ratio * a), rel=1e-9)


# rows 0, 15, 30, 45 and 59 of the default scan (REF_GEOM sizes, z0 =
# linspace(200, 2500, 60)), in m^-3, as scipy.integrate.quad (QUADPACK qagp,
# epsrel 1e-10) gives them
@pytest.mark.parametrize(
    "z0, expected",
    [
        (200.0, -4.774443237547115e22),
        (784.7457627118644, -1.940387239764543e22),
        (1369.4915254237287, -5.194005205266786e21),
        (1954.2372881355932, -1.808306482258631e21),
        (2500.0, -8.637867707358136e20),
    ],
)
def test_dipolar_average_pinned_scan_rows(z0, expected):
    assert ia.dipolar_average(REF_GEOM, z0) == pytest.approx(expected, rel=1e-11)


def test_dipolar_average_point_trap_limit():
    geom = ia.TrapGeometry(1e-3, 1e-3, 1e-3, 1e-3)
    got = ia.dipolar_average(geom, 700.0) * units.BOHR_RADIUS**3
    assert got * 700.0**3 == pytest.approx(-2.0, rel=1e-10)


def test_dipolar_average_even_in_z0():
    geom = ia.TrapGeometry(300, 150, 120, 80)
    assert ia.dipolar_average(geom, 600.0) == pytest.approx(
        ia.dipolar_average(geom, -600.0), rel=1e-12
    )


def test_dipolar_average_far_asymptote():
    a = REF_GEOM.a_r
    for ratio in (10.0, 14.0):
        geom = ia.TrapGeometry(400, 400, 100, 100)
        val = ia.dipolar_average(geom, ratio * a)
        assert val * units.a0_to_m(ratio * a) ** 3 == pytest.approx(-2.0, rel=0.01)


@pytest.mark.parametrize("z0", [1e15, 1e19, 1e20])
def test_dipolar_average_at_large_z0_is_the_point_dipole(z0):
    # nodes at z0 + u would be rounded to the ulp of z0 (2048 a0 at 1e19 a0,
    # against a_z = 412 a0)
    got = ia.dipolar_average(REF_GEOM, z0) * units.BOHR_RADIUS**3
    assert got * z0**3 == pytest.approx(-2.0, rel=1e-12)


def test_dipolar_mc_agrees_with_quadrature_anisotropic():
    geom = ia.TrapGeometry(300, 150, 120, 80)
    mc = ia.dipolar_average_mc(geom, 600.0, 400_000, seed=99)
    quad = ia.dipolar_average(geom, 600.0)
    assert abs(mc.value_m3 - quad) <= 3.0 * mc.stderr_m3
    assert mc.stderr_m3 < 0.1 * abs(quad)


def test_dipolar_quadrature_at_zero_separation_is_minus_the_contact_term():
    # for isotropic combined widths the spherical principal value vanishes at
    # z0 = 0, so the slab value the quadrature computes is -(8 pi/3) p_R(0)
    quad = ia.dipolar_average(REF_GEOM, 0.0)
    assert quad == pytest.approx(-8 * math.pi / 3 * overlap_density_m3(REF_GEOM, 0.0), rel=1e-8)
    assert quad * units.BOHR_RADIUS**3 == pytest.approx(-7.5888e-9, rel=1e-4)


def test_contact_density_is_the_gaussian_density_at_zero_separation():
    anisotropic = ia.TrapGeometry(300, 150, 120, 80)
    for geom, z0 in ((REF_GEOM, REF_Z0), (anisotropic, 0.0), (anisotropic, 600.0)):
        assert ia.contact_density_a0(geom, z0) == pytest.approx(overlap_density_m3(geom, z0) * units.BOHR_RADIUS**3, rel=1e-12)


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 1.5, 2.2])
def test_dipolar_mc_agrees_with_quadrature_where_the_contact_term_matters(ratio):
    # within a few a_z the sampler's spherical mean and the quadrature's slab
    # value differ by (8 pi/3) p_R(0), several stderr at 1e6 samples
    z0 = ratio * REF_GEOM.a_z
    mc = ia.dipolar_average_mc(REF_GEOM, z0, 1_000_000, seed=2)
    quad = ia.dipolar_average(REF_GEOM, z0)
    assert abs(mc.value_m3 - quad) <= 3.0 * mc.stderr_m3


def test_dipolar_mc_point_trap_limit():
    geom = ia.TrapGeometry(0.5, 0.5, 0.5, 0.5)
    mc = ia.dipolar_average_mc(geom, 700.0, 50_000, seed=5)
    target = -2.0 / units.a0_to_m(700.0) ** 3
    assert abs(mc.value_m3 - target) <= 3.0 * mc.stderr_m3 + 1e-6 * abs(target)


def serial_mc_reference(geom: ia.TrapGeometry, z0: float, n_samples: int, seed: int):
    """(value_m3, stderr_m3, n_rejected) of the Monte Carlo oracle, computed
    one chunk after another on fresh arrays: the seeded stream that
    ``dipolar_average_mc`` must reproduce bit for bit.

    The oracle evaluates P = ceil(n_samples / 2) pairs.  Each chunk of pairs
    draws R = r_q - r_h - z0 zhat from its own generator as n standard
    exponentials E, then n standard normals z: both evaluations of a pair
    take the transverse radius squared 2 a_r^2 E, one the axial part
    a_z z - z0 and the other -a_z z - z0.  An evaluation inside the core
    cutoff ``ia.MC_CORE_CUTOFF_A0`` counts as 0.  With s the sum of a pair's
    two values, the mean is sum s / 2P and its stderr that of the pair means
    s / 2; the spherical mean then loses the contact term (8 pi/3) p_R(0)."""
    n_pairs = (n_samples + 1) // 2
    chunk_size = ia._MC_CHUNK
    total, total_sq, rejected = 0.0, 0.0, 0
    for chunk in range((n_pairs + chunk_size - 1) // chunk_size):
        n = min(chunk_size, n_pairs - chunk * chunk_size)
        rng = np.random.default_rng([seed, chunk])
        e, z = rng.standard_exponential(n), rng.standard_normal(n)
        rho2 = e * (2.0 * geom.a_r * geom.a_r)
        az = z * geom.a_z
        s = np.zeros(n)
        for w in (az - z0, -az - z0):
            r2 = rho2 + w**2
            inside = r2 <= ia.MC_CORE_CUTOFF_A0**2
            s = s + np.where(inside, 0.0, (1.0 - 3.0 * w**2 / r2) / (r2 * np.sqrt(r2)))
            rejected += int(inside.sum())
        total += float(s.sum())
        total_sq += float((s * s).sum())
    mean = total / (2 * n_pairs)
    spread = max(0.0, total_sq - 2.0 * mean * (2.0 * total) + mean * mean * (4.0 * n_pairs))
    stderr = math.sqrt(spread / ((n_pairs - 1) * n_pairs)) / 2.0
    value = mean - 8.0 * math.pi / 3.0 * ia.contact_density_a0(geom, z0)
    return value / units.BOHR_RADIUS**3, stderr / units.BOHR_RADIUS**3, rejected


def three_normal_mc(geom: ia.TrapGeometry, z0: float, n_samples: int, seed: int):
    """(value_m3, stderr_m3) of the same estimator with R drawn from three
    standard normals x, y, z as (a_r x, a_r y, a_z z - z0)."""
    x, y, z = np.random.default_rng(seed).standard_normal((3, n_samples))
    z = z * geom.a_z - z0
    r2 = geom.a_r**2 * (x * x + y * y) + z * z
    keep = r2 > 0.1**2
    r2, z = r2[keep], z[keep]
    f = (1.0 - 3.0 * z * z / r2) / (r2 * np.sqrt(r2))
    value = f.mean() - 8.0 * math.pi / 3.0 * ia.contact_density_a0(geom, z0)
    return value / units.BOHR_RADIUS**3, f.std(ddof=1) / math.sqrt(f.size) / units.BOHR_RADIUS**3


@pytest.mark.parametrize("z0", [2100.0, 2500.0, 3300.0])
def test_dipolar_mc_exponential_radius_agrees_with_three_normals(z0):
    # x^2 + y^2 of two standard normals is 2 E with E ~ Exp(1).  At 5-8 a_z
    # the transverse width shapes the mean: drawing rho^2 as a_r^2 E instead
    # of 2 a_r^2 E puts the two estimates 70-100 sigma apart
    geom = ia.TrapGeometry(400.0, 400.0, 100.0, 100.0)
    mc = ia.dipolar_average_mc(geom, z0, 500_000, seed=11)
    ref, ref_stderr = three_normal_mc(geom, z0, 500_000, seed=12)
    assert abs(mc.value_m3 - ref) <= 4.0 * math.hypot(mc.stderr_m3, ref_stderr)


@pytest.mark.parametrize("z0", [2100.0, 2400.0])
def test_dipolar_mc_pairs_cost_no_precision_where_the_benchmark_samples(z0):
    # each pair spends one draw on two evaluations, and at the benchmark's
    # separations the stderr per evaluation still falls below the unpaired one
    seeds = range(1, 11)
    paired = [ia.dipolar_average_mc(REF_GEOM, z0, 200_000, seed).stderr_m3 for seed in seeds]
    unpaired = [three_normal_mc(REF_GEOM, z0, 200_000, seed)[1] for seed in seeds]
    assert statistics.median(paired) < statistics.median(unpaired)


def _mc_triple(result: ia.MonteCarloAverage):
    return result.value_m3, result.stderr_m3, result.n_rejected


def test_dipolar_mc_deterministic_and_chunk_invariant():
    a = ia.dipolar_average_mc(REF_GEOM, REF_Z0, 150_000, seed=42)
    b = ia.dipolar_average_mc(REF_GEOM, REF_Z0, 150_000, seed=42)
    assert a == b
    assert _mc_triple(a) == serial_mc_reference(REF_GEOM, REF_Z0, 150_000, 42)
    c = ia.dipolar_average_mc(REF_GEOM, REF_Z0, 150_000, seed=43)
    assert c.value_m3 != a.value_m3


MC_STREAM_CASES = {
    "z0=0": (ia.TrapGeometry(400.0, 400.0, 100.0, 100.0), 0.0, 0.1),
    "z0=2100": (ia.TrapGeometry(400.0, 400.0, 100.0, 100.0), 2100.0, 0.1),
    "cutoff=1": (ia.TrapGeometry(1.0, 1.0, 1.0, 1.0), 0.0, 1.0),
    "cutoff=50": (ia.TrapGeometry(400.0, 400.0, 100.0, 100.0), 0.0, 50.0),
    "anisotropic": (ia.TrapGeometry(300.0, 150.0, 120.0, 80.0), 600.0, 0.1),
    # the two evaluations of a pair sit at different |R|, so some pairs count one of two as 0
    "z0=1,cutoff=1": (ia.TrapGeometry(1.0, 1.0, 1.0, 1.0), 1.0, 1.0),
}


@pytest.mark.parametrize(
    "n_samples",
    # evaluations: exactly one chunk of pairs, then odd counts that reach one pair into a second and a fourth chunk
    [10_000, 2**17, 2**17 + 1, 3 * 2**17 + 5, 2 * ia._MC_CHUNK, 2 * ia._MC_CHUNK + 1, 6 * ia._MC_CHUNK + 5],
)
@pytest.mark.parametrize("case", list(MC_STREAM_CASES))
def test_dipolar_mc_bit_identical_to_serial_reference_for_any_pool_size(monkeypatch, case, n_samples):
    geom, z0, cutoff = MC_STREAM_CASES[case]
    monkeypatch.setattr(ia, "MC_CORE_CUTOFF_A0", cutoff)
    want = serial_mc_reference(geom, z0, n_samples, 42)
    if cutoff > 0.1:
        assert want[2] > 0  # the zeroing step is exercised
    for cpus in (1, 2, 3):
        monkeypatch.setattr(ia, "_usable_cpus", lambda: cpus)
        got = ia.dipolar_average_mc(geom, z0, n_samples, seed=42)
        assert _mc_triple(got) == want, f"{cpus} workers"


def test_dipolar_mc_buffers_stay_small(monkeypatch):
    # numpy reports its array buffers to tracemalloc; two workers with 2^17-sample
    # chunks peaked at 6.6e6 bytes here, with 2^14-sample chunks at 0.85e6, and
    # with chunks of 2^13 pairs of evaluations at 0.85e6 too
    monkeypatch.setattr(ia, "_usable_cpus", lambda: 2)
    ia.dipolar_average_mc(REF_GEOM, 2100.0, 10_000, seed=1)  # imports numpy.random
    tracemalloc.start()
    try:
        ia.dipolar_average_mc(REF_GEOM, 2100.0, 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_dipolar_mc_error_in_one_worker_reaches_the_caller(monkeypatch):
    # two chunks on two workers; the one of the second chunk, on a thread of its own, fails
    failure, hooked, real = RuntimeError("worker 1 failed"), [], ia._mc_chunk_sums

    def fail_in_worker_1(geom, z0, n_pairs, seed, chunks):
        if chunks.start == 1:
            raise failure
        return real(geom, z0, n_pairs, seed, chunks)

    monkeypatch.setattr(ia, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ia, "_mc_chunk_sums", fail_in_worker_1)
    monkeypatch.setattr(threading, "excepthook", hooked.append)  # a thread's uncaught exception, printed
    with pytest.raises(RuntimeError) as raised:
        ia.dipolar_average_mc(REF_GEOM, 2100.0, 4 * ia._MC_CHUNK, seed=1)
    assert raised.value is failure
    assert hooked == []


@pytest.mark.parametrize("n_samples, message", [
    (100, "need at least 1e4 samples, got 100"),
    (1e5, "MC sample count must be an integer, got 100000.0"),
    (100000.5, "MC sample count must be an integer, got 100000.5"),
    (True, "MC sample count must be an integer, got True"),
], ids=["below-1e4", "float-1e5", "fraction", "bool"])
def test_dipolar_mc_validates_sample_count(monkeypatch, n_samples, message):
    monkeypatch.setitem(sys.modules, "numpy", None)  # refused before numpy is imported
    with pytest.raises(DomainError) as refused:
        ia.dipolar_average_mc(REF_GEOM, REF_Z0, n_samples, seed=1)
    assert str(refused.value) == message


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_dipolar_mc_refuses_bad_seed(seed):
    with pytest.raises(DomainError, match="non-negative integer"):
        ia.dipolar_average_mc(REF_GEOM, REF_Z0, 10_000, seed=seed)


def test_dipolar_mc_core_rejection_counted(monkeypatch):
    # overlapping traps at tiny separation with a huge cutoff: must reject
    monkeypatch.setattr(ia, "MC_CORE_CUTOFF_A0", 1.0)
    geom = ia.TrapGeometry(1.0, 1.0, 1.0, 1.0)
    mc = ia.dipolar_average_mc(geom, 0.1, 20_000, seed=3)
    assert mc.n_rejected > 0


@pytest.mark.parametrize("z0s, n_samples, seed", [
    ([2100.0, 2200.0, 2300.0, 2400.0], 1_000_000, 885608974),  # the benchmark's MC scan at its first seed
    ([1.0, 225.75, 450.5, 675.25, 900.0], 300_001, MC_SEED),  # down to the traps' overlap
], ids=["benchmark", "overlap"])
def test_dipolar_mc_rejects_nothing_for_the_default_geometry(z0s, n_samples, seed):
    # no evaluation falls inside the core, so counting one as 0 changes no output byte of these scans
    for i, z0 in enumerate(z0s):
        assert ia.dipolar_average_mc(REF_GEOM, z0, n_samples, seed + i).n_rejected == 0


def test_dipolar_mc_refuses_when_every_sample_is_rejected():
    # widths far inside the default 0.1 a0 core cutoff, at zero separation
    geom = ia.TrapGeometry(1e-3, 1e-3, 1e-3, 1e-3)
    with pytest.raises(NumericalError, match="all samples rejected by the core cutoff"):
        ia.dipolar_average_mc(geom, 0.0, 10_000, seed=1)


def test_usable_cpus_without_an_affinity_call_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(ia.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ia.os, "cpu_count", lambda: 3)
    assert ia._usable_cpus() == 3
    monkeypatch.setattr(ia.os, "cpu_count", lambda: None)  # the count is unknown
    assert ia._usable_cpus() == 1


# --- effective coupling -----------------------------------------------------

def scan_row(z0, **kw):
    """The ``scan_couplings`` row of REF_GEOM's traps at separation ``z0``."""
    return ia.scan_couplings(REF_GEOM, RB_SCAT, [z0], **kw)[0]


def test_effective_j_khz_scale_at_1000a0():
    dip = scan_row(1000.0)["J_dipolar_Hz"]
    assert 100.0 <= abs(dip) <= 10_000.0
    assert dip < 0  # on-axis dipolar coupling is negative


def test_effective_j_composition():
    row = scan_row(REF_Z0)
    assert row["J_total_Hz"] == pytest.approx(row["J_exchange_Hz"] + row["J_dipolar_Hz"], rel=1e-12)
    assert row["J_exchange_Hz"] == pytest.approx(ia.exchange_strength(REF_GEOM, REF_Z0, RB_SCAT), rel=1e-12)


def test_exchange_negligible_against_dipole_far_out():
    row = scan_row(4000.0)
    assert abs(row["J_exchange_Hz"]) < 1e-6 * abs(row["J_dipolar_Hz"])


def test_effective_j_mc_mode_propagates_stderr():
    j = scan_row(REF_Z0, mc_samples=50_000, seed=7)
    assert j["method"] == "monte_carlo"
    assert j["stderr_Hz"] is not None and j["stderr_Hz"] > 0
    quad = scan_row(REF_Z0)
    assert abs(j["J_dipolar_Hz"] - quad["J_dipolar_Hz"]) <= 4.0 * j["stderr_Hz"]


def test_effective_j_zero_mc_samples_is_refused_not_quadrature():
    with pytest.raises(DomainError, match="at least 1e4 samples"):
        scan_row(REF_Z0, mc_samples=0)


@pytest.mark.parametrize("z0", [1e103, 1e200, sys.float_info.max])
def test_couplings_beyond_float_range_of_z0_cubed_do_not_overflow(z0):
    # the kernel's |z|^3 overflows from 5.6e102 a0, the exchange's z0^2 (in m)
    # from 2.5e164 a0; both couplings are 0 or vanishingly small out there
    assert ia.exchange_strength(REF_GEOM, z0, RB_SCAT) == 0.0
    assert abs(ia.dipolar_average(REF_GEOM, z0)) <= 1e-250


@pytest.mark.parametrize("a_r", [1e-90, 1e100])
def test_dipolar_average_at_widths_out_of_float_range_is_a_numerical_error(a_r):
    # a_r^4 underflows to 0 or overflows
    with pytest.raises(NumericalError, match="cannot evaluate trap widths"):
        ia.dipolar_average(ia.TrapGeometry(a_r, 400.0, a_r, 100.0), 1000.0)


def test_coupling_inputs_are_the_trap_module_definitions():
    from spinbus import traps

    assert ia.TrapGeometry is traps.TrapGeometry
    assert ia.ScatteringParams is traps.ScatteringParams


def test_monte_carlo_average_invariants():
    with pytest.raises(DomainError, match="coupling value must be finite"):
        ia.MonteCarloAverage(value_m3=math.nan, stderr_m3=1.0, n_rejected=0)


@pytest.mark.parametrize("z0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda z0: ia.exchange_strength(REF_GEOM, z0, RB_SCAT),
    lambda z0: ia.contact_density_a0(REF_GEOM, z0),
    lambda z0: ia.dipolar_average(REF_GEOM, z0),
    lambda z0: ia.dipolar_average_mc(REF_GEOM, z0, 10_000, seed=1),
    lambda z0: ia.scan_couplings(REF_GEOM, RB_SCAT, [REF_Z0, z0]),
    lambda z0: ia.scan_couplings(REF_GEOM, RB_SCAT, [REF_Z0, z0], mc_samples=10_000),
], ids=["exchange_strength", "contact_density_a0", "dipolar_average", "dipolar_average_mc", "scan_couplings",
        "scan_couplings-mc"])
def test_every_coupling_refuses_a_non_finite_z0(call, z0):
    with pytest.raises(DomainError, match="z0"):
        call(z0)


@pytest.mark.parametrize("mc_samples", [None, 10_000], ids=["quadrature", "mc"])
def test_scan_rows_hold_exactly_the_scan_columns(mc_samples):
    rows = ia.scan_couplings(REF_GEOM, RB_SCAT, [500.0, 1000.0], mc_samples=mc_samples)
    assert [tuple(row) for row in rows] == [ia.SCAN_COLUMNS] * 2
    assert rows[1]["J_pointdipole_Hz"] == -2.0 * ia.GAMMA_E_A0_HZ * units.BOHR_RADIUS**3 / units.a0_to_m(1000.0) ** 3


def test_scan_rows_and_csv(capsys):
    rows = ia.scan_couplings(REF_GEOM, RB_SCAT, [500.0, 1000.0])
    assert [r["z0_a0"] for r in rows] == [500.0, 1000.0]
    for r in rows:
        assert r["J_total_Hz"] == pytest.approx(r["J_exchange_Hz"] + r["J_dipolar_Hz"], rel=1e-12)
        assert r["method"] == "quadrature"
    assert main(["scan", "--z0-min", "500", "--z0-max", "1000", "--points", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "z0_a0,J_exchange_Hz,J_dipolar_Hz,J_total_Hz,method,stderr_Hz,J_pointdipole_Hz"
    assert len(lines) == 3
