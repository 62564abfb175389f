import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbus import transport as tr
from spinbus import units
from spinbus.errors import DomainError, NumericalError

OMEGA_T = 2 * math.pi * 982_323.0        # Rb blue-trap frequency
MASS = 87 * units.ATOMIC_MASS


def lorentzian_samples(f0, tau, half_width, n):
    """The force f0 tau / (tau^2 + t^2) of ``tr.LorentzianPulse`` on a uniform grid."""
    t = np.linspace(-half_width, half_width, n)
    return t, f0 * tau / (tau**2 + t**2)


def trapezoid_transform(t, f, omega):
    """|Integral F(t) e^{i omega t} dt| of sampled forces, by the trapezoid rule."""
    return float(abs(np.trapezoid(f * np.exp(1j * omega * t), t)))


def test_impulse_lorentzian_analytic():
    pulse = tr.LorentzianPulse(f0_n=2.5e-22, tau_s=3e-6)
    assert tr.impulse(pulse) == pytest.approx(math.pi * 2.5e-22, rel=1e-12)


def test_impulse_zero_and_linearity():
    base = tr.LorentzianPulse(f0_n=1e-22, tau_s=1e-6)
    assert tr.impulse(tr.LorentzianPulse(f0_n=0.0, tau_s=1e-6)) == 0.0
    assert tr.impulse(tr.LorentzianPulse(f0_n=2e-22, tau_s=1e-6)) == pytest.approx(
        2 * tr.impulse(base), rel=1e-12
    )


def test_sampled_impulse_converges_to_analytic():
    pulse = tr.LorentzianPulse(f0_n=1e-22, tau_s=2e-6)
    t, f = lorentzian_samples(1e-22, 2e-6, 4000e-6, 2_000_001)
    # wide window: tails contribute ~ 2 f0 tau / T_half
    assert float(np.trapezoid(f, t)) == pytest.approx(tr.impulse(pulse), rel=1e-3)


def test_fourier_magnitude_lorentzian_vs_quadrature():
    pulse = tr.LorentzianPulse(f0_n=1e-22, tau_s=2e-6)
    t, f = lorentzian_samples(1e-22, 2e-6, 400e-6, 400_001)
    got = trapezoid_transform(t, f, OMEGA_T / 4)
    assert got == pytest.approx(tr.fourier_magnitude(pulse, OMEGA_T / 4), rel=1e-4)


def test_fourier_magnitude_refuses_a_non_positive_omega():
    with pytest.raises(DomainError, match="omega must be positive, got 0.0"):
        tr.fourier_magnitude(tr.LorentzianPulse(f0_n=1e-22, tau_s=2e-6), 0.0)


def test_excitation_first_order_definition():
    pulse = tr.LorentzianPulse(f0_n=3e-22, tau_s=1.5e-6)
    ft = math.pi * 3e-22 * math.exp(-OMEGA_T * 1.5e-6)
    expected = ft**2 / (2 * MASS * units.HBAR * OMEGA_T)
    assert tr.excitation_first_order(pulse, OMEGA_T, MASS) == pytest.approx(expected, rel=1e-12)


def test_zero_force_zero_probability():
    pulse = tr.LorentzianPulse(f0_n=0.0, tau_s=1e-6)
    assert tr.excitation_first_order(pulse, OMEGA_T, MASS) == 0.0
    assert tr.excitation_exact(pulse, OMEGA_T, MASS) == 0.0


def test_exact_vs_first_order_agreement_when_small():
    for tau in np.linspace(0.8e-6, 2.5e-6, 12):
        pulse = tr.LorentzianPulse(f0_n=1e-21, tau_s=float(tau))
        p1 = tr.excitation_first_order(pulse, OMEGA_T, MASS)
        p = tr.excitation_exact(pulse, OMEGA_T, MASS)
        assert 0.0 <= p <= 1.0
        if p < 1e-2:
            assert abs(p1 - p) / p < 0.05


def test_exact_probability_bounded_for_violent_pulse():
    pulse = tr.LorentzianPulse(f0_n=1e-15, tau_s=1e-8)
    assert 0.0 <= tr.excitation_exact(pulse, OMEGA_T, MASS) <= 1.0


def test_log_excitation_affine_in_omega_tau():
    # adopted exponent convention: probability ~ exp(-2 w tau); the amplitude
    # keeps p < 1e-3 so the exact form's curvature stays under the residual
    taus = np.linspace(1.2e-6, 2.2e-6, 9)
    x = OMEGA_T * taus
    y = [math.log(tr.excitation_exact(tr.LorentzianPulse(1e-25, float(t)), OMEGA_T, MASS)) for t in taus]
    slope, intercept = np.polyfit(x, y, 1)
    residual = np.max(np.abs(np.polyval([slope, intercept], x) - y))
    assert slope == pytest.approx(-2.0, abs=1e-3)
    assert residual < 1e-3


def test_reshaping_invariance_at_fixed_transform():
    """Same |F~(w_t)| from very different shapes leaves p unchanged."""
    narrow = tr.LorentzianPulse(f0_n=1e-21, tau_s=1.0e-6)
    target_ft = tr.fourier_magnitude(narrow, OMEGA_T)
    # double-humped profile: two shifted Lorentzians, rescaled to match
    t = np.linspace(-60e-6, 60e-6, 1_200_001)
    shift = 2.4e-6
    raw = 1.0 / (1.44e-12 + (t - shift) ** 2) + 1.0 / (1.44e-12 + (t + shift) ** 2)
    reshaped = raw * (target_ft / trapezoid_transform(t, raw, OMEGA_T))
    p_a = tr.excitation_exact(narrow, OMEGA_T, MASS)
    alpha_sq = trapezoid_transform(t, reshaped, OMEGA_T) ** 2 / (2 * MASS * units.HBAR * OMEGA_T)
    p_b = -math.expm1(-alpha_sq)
    assert abs(p_a - p_b) / p_a < 1e-6
    # and the pulses really are differently shaped
    peak_a = float(np.max(lorentzian_samples(narrow.f0_n, narrow.tau_s, 60e-6, 1_200_001)[1]))
    peak_b = float(np.max(reshaped))
    assert not math.isclose(peak_a, peak_b, rel_tol=0.2)


def test_pulse_validation():
    with pytest.raises(DomainError):
        tr.LorentzianPulse(f0_n=1.0, tau_s=-1e-6)
    with pytest.raises(DomainError):
        tr.LorentzianPulse(f0_n=math.inf, tau_s=1e-6)


def test_plan_zero_distance():
    result = tr.plan_transport(0.0, OMEGA_T, MASS, 1e-4)
    assert result.p_exact == 0.0 and result.adiabatic
    assert result.impulse_kg_m_s == 0.0


def test_plan_meets_budget_with_few_trap_periods():
    distance = 5.3e-6  # one lattice site
    result = tr.plan_transport(distance, OMEGA_T, MASS, 1e-4)
    assert result.p_exact <= 1e-4 * (1 + 1e-9)
    assert result.adiabatic
    # tau is a couple of trap periods, not thousands
    periods = result.tau_s * OMEGA_T / (2 * math.pi)
    assert 0.5 < periods < 5.0
    assert result.transit_time_s > result.tau_s
    assert result.impulse_kg_m_s == pytest.approx(MASS * OMEGA_T * distance, rel=1e-9)
    assert result.kinetic_gain_j == pytest.approx(
        0.5 * MASS * (OMEGA_T * distance) ** 2, rel=1e-9
    )
    assert result.phase_rad > 0


def test_plan_budget_halving_shifts_tau_by_log2_over_2w():
    a = tr.plan_transport(5.3e-6, OMEGA_T, MASS, 1e-4)
    b = tr.plan_transport(5.3e-6, OMEGA_T, MASS, 5e-5)
    assert b.tau_s - a.tau_s == pytest.approx(math.log(2) / (2 * OMEGA_T), rel=1e-2)


def test_plan_speed_independence():
    # the budget pins w_t * tau; the peak speed is free to grow with distance
    far = tr.plan_transport(53e-6, OMEGA_T, MASS, 1e-4)
    near = tr.plan_transport(5.3e-6, OMEGA_T, MASS, 1e-4)
    assert far.peak_speed_m_s > 5 * near.peak_speed_m_s
    assert far.p_exact <= 1e-4 * (1 + 1e-9)


def test_plan_duration_cap():
    with pytest.raises(NumericalError, match=r"^budget 1e-12 needs a .* s transit window, over the 1\.000e-05 s cap$"):
        tr.plan_transport(5.3e-6, OMEGA_T, MASS, 1e-12, max_duration_s=1e-5)


def test_plan_validation():
    with pytest.raises(DomainError):
        tr.plan_transport(5.3e-6, OMEGA_T, MASS, 1.5)
    with pytest.raises(DomainError):
        tr.plan_transport(-1.0, OMEGA_T, MASS, 1e-4)
    with pytest.raises(DomainError):
        tr.plan_transport(5.3e-6, -1.0, MASS, 1e-4)
    for cap in (0.0, -1e-3):
        with pytest.raises(DomainError, match="^max_duration_s must be positive"):
            tr.plan_transport(5.3e-6, OMEGA_T, MASS, 1e-4, max_duration_s=cap)


@pytest.mark.parametrize("arg", ["distance_m", "omega_t", "mass_kg", "p_budget", "max_duration_s"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plan_rejects_non_finite_inputs(arg, bad):
    kwargs = {"distance_m": 5.3e-6, "omega_t": OMEGA_T, "mass_kg": MASS, "p_budget": 1e-4, arg: bad}
    with pytest.raises(DomainError, match=f"^{arg} must be finite"):
        tr.plan_transport(**kwargs)


def _transit_or_none(distance, omega_t, p_budget):
    try:
        result = tr.plan_transport(distance, omega_t, MASS, p_budget)
    except NumericalError:
        return None
    assert all(map(math.isfinite, result.as_dict().values()))
    assert result.p_exact <= p_budget and result.adiabatic
    return result.transit_time_s


# up to a metre, 1 rad/s to 1e12 rad/s and budgets down to 1e-200 every plan
# stays inside float range
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    st.floats(1.0, 1e12),
    st.floats(1e-200, 1.0, exclude_max=True),
)
def test_plan_meets_budget_and_transit_grows_with_distance(distances, omega_t, p_budget):
    near, far = (_transit_or_none(d, omega_t, p_budget) for d in distances)
    assert near is not None and far is not None
    assert near <= far


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, allow_infinity=False), min_size=2, max_size=2).map(sorted),
    st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_plan_at_any_float_scale_meets_budget_or_raises_numerical_error(distances, omega_t, p_budget):
    near, far = (_transit_or_none(d, omega_t, p_budget) for d in distances)
    if near is not None and far is not None:
        assert near <= far


def test_plan_out_of_float_range_is_a_numerical_error():
    for args in ((1e200, OMEGA_T), (1e150, OMEGA_T), (5.3e-6, 1e-300), (5.3e-6, 1e300)):
        with pytest.raises(NumericalError, match="out of float range"):
            tr.plan_transport(*args, MASS, 1e-4)
    # the pulse amplitude M w_t d / pi overflows while its inputs are in range
    with pytest.raises(NumericalError, match=r"^distance_m 1\.0, omega_t 1e\+300 .* out of float range$"):
        tr.plan_transport(1.0, 1e300, 1e10, 1e-4)
    # a sub-femtometre move underflows n0 to 0 and takes the 0.1/w_t floor
    result = tr.plan_transport(5e-324, OMEGA_T, MASS, 1e-4)
    assert result.tau_s == 0.1 / OMEGA_T and result.p_exact == 0.0


def test_phase_integral_constant_matches_mpmath():
    with mpmath.workdps(50):
        u_max = mpmath.mpf(tr.TRANSIT_COVERAGE) * mpmath.pi / 2
        k = mpmath.quad(lambda u: (mpmath.mpf(1) / 4 + u**2 / mpmath.pi**2) * mpmath.sec(u) ** 2, [-u_max, 0, u_max])
        assert abs(tr.PHASE_INTEGRAL_K - k) / k < 1e-14


@pytest.mark.parametrize("distance", [5.3e-7, 5.3e-6, 53e-6])
def test_plan_phase_matches_mpmath_integral(distance):
    result = tr.plan_transport(distance, OMEGA_T, MASS, 1e-4)
    with mpmath.workdps(30):
        tau = mpmath.mpf(result.tau_s)
        half = mpmath.mpf(result.transit_time_s) / 2

        def q0_squared(t):
            return (distance * (mpmath.mpf(1) / 2 + mpmath.atan(t / tau) / mpmath.pi)) ** 2

        acc = mpmath.quad(q0_squared, [-half, -tau, 0, tau, half])
        expected = MASS * OMEGA_T**2 * acc / (2 * mpmath.mpf(units.HBAR))
        assert abs(result.phase_rad - expected) / expected < 1e-12


def test_result_dict_fields():
    result = tr.plan_transport(5.3e-6, OMEGA_T, MASS, 1e-4)
    d = result.as_dict()
    for key in ("distance", "tau", "transit_time", "p_first_order", "p_exact", "phase"):
        assert key in d
