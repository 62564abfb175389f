"""Adiabaticity analysis for translating the header atom.

Moving the trap center along a trajectory q0(t) is equivalent to a forced
stationary oscillator with F(t) = M w_t^2 q0(t), up to a deterministic
phase from M w_t^2 q0^2/2 which is tracked, not dropped.  The excitation
out of the motional ground state is governed entirely by the Fourier
component of the force at the trap frequency:

    |alpha|^2 = |F~(w_t)|^2 / (2 M hbar w_t)
    p_first_order = |alpha|^2          p_exact = 1 - exp(-|alpha|^2)

(the final state is a coherent state, so the exact result is available in
closed form).  For the reference pulse F(t) = F0 tau/(tau^2 + t^2)
the transform is analytic and the excitation scales as exp(-2 w_t tau):
adiabaticity depends on w_t tau alone, not on the peak speed reached.

Every pulse here is that Lorentzian, so each quantity is a closed form in
plain ``math``.  ``plan_transport`` refuses an input outside its range with
DomainError; a plan that leaves float range, or a transit window over the
cap, is a NumericalError, as the compiler's MOVEs and ``transport`` report it.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError
from .record import Record
from .units import HBAR

#: fraction of the commanded displacement covered inside the reported
#: transit window (the reference pulse has algebraic tails)
TRANSIT_COVERAGE = 0.99

#: K = Int_{-U}^{U} (1/4 + u^2/pi^2) sec^2(u) du with U = TRANSIT_COVERAGE pi/2:
#: with t = tau tan(u), q0 = d (1/2 + u/pi) and dt = tau sec^2(u) du, so
#: Int q0^2 dt over the window is d^2 tau K (the odd u/pi term cancels).
#: Evaluated with 50-digit mpmath; it depends on TRANSIT_COVERAGE alone and
#: must be recomputed with it (tests/test_transport.py checks the pair).
PHASE_INTEGRAL_K = 60.813979668791977646


class LorentzianPulse(Record):
    """F(t) = f0 * tau / (tau^2 + t^2); ``f0_n`` is the impulse over pi, in N s."""

    f0_n: float
    tau_s: float

    def _check(self):
        if self.tau_s <= 0:
            raise DomainError("tau must be positive")
        if not math.isfinite(self.f0_n):
            raise DomainError("pulse amplitude must be finite")


def impulse(pulse: LorentzianPulse) -> float:
    """Integral of F(t), pi f0, in kg m/s."""
    return math.pi * pulse.f0_n


def fourier_magnitude(pulse: LorentzianPulse, omega: float) -> float:
    """|F~(omega)| = |Integral F(t) e^{i omega t} dt| = pi |f0| exp(-omega tau), N s."""
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    return abs(math.pi * pulse.f0_n) * math.exp(-omega * pulse.tau_s)


def excitation_first_order(pulse: LorentzianPulse, omega_t: float, mass_kg: float) -> float:
    """First-order excitation probability |F~(w_t)|^2 / (2 M hbar w_t).

    For the Lorentzian this is [M (dv)^2 / (2 hbar w_t)] exp(-2 w_t tau):
    the probability carries the amplitude exponent squared.
    """
    _check_trap(omega_t, mass_kg)
    ft = fourier_magnitude(pulse, omega_t)
    return ft * ft / (2.0 * mass_kg * HBAR * omega_t)


def excitation_exact(pulse: LorentzianPulse, omega_t: float, mass_kg: float) -> float:
    """Exact excitation probability 1 - exp(-|alpha|^2), always in [0, 1]."""
    return -math.expm1(-excitation_first_order(pulse, omega_t, mass_kg))


def _check_trap(omega_t: float, mass_kg: float):
    if omega_t <= 0 or mass_kg <= 0:
        raise DomainError("trap frequency and mass must be positive")


class TransportResult(Record):
    distance_m: float
    tau_s: float
    transit_time_s: float
    impulse_kg_m_s: float
    kinetic_gain_j: float
    p_first_order: float
    p_exact: float
    adiabatic: bool
    peak_speed_m_s: float
    phase_rad: float

    def as_dict(self) -> dict:
        return {
            "distance": self.distance_m,
            "tau": self.tau_s,
            "transit_time": self.transit_time_s,
            "p_first_order": self.p_first_order,
            "p_exact": self.p_exact,
            "phase": self.phase_rad,
            "impulse": self.impulse_kg_m_s,
            "kinetic_gain": self.kinetic_gain_j,
            "peak_speed": self.peak_speed_m_s,
            "adiabatic": self.adiabatic,
        }


def plan_transport(
    distance_m: float,
    omega_t: float,
    mass_kg: float,
    p_budget: float,
    max_duration_s: float | None = None,
) -> TransportResult:
    """Choose a trap-center trajectory covering ``distance_m`` within budget.

    The velocity profile is Lorentzian, v(t) = (d tau/pi)/(tau^2 + t^2), so
    the co-moving excitation is n0 exp(-2 w_t tau) with n0 = M w_t d^2 /
    (2 hbar); tau is solved from the budget.  The result's impulse and
    excitation are those of the equivalent oscillator force F(t) = M w_t v(t),
    whose standard excitation formulas reproduce the co-moving result
    exactly.  Note the budget fixes w_t tau only -- the peak speed d/(pi tau)
    is unconstrained, which is the point: fast transport stays adiabatic if
    it is smooth.

    The plan meets the budget exactly (``p_exact <= p_budget``).  Inputs
    whose plan leaves float range, or whose transit window exceeds
    ``max_duration_s``, raise NumericalError.
    """
    named = (("distance_m", distance_m), ("omega_t", omega_t), ("mass_kg", mass_kg), ("p_budget", p_budget))
    if max_duration_s is not None:
        named += (("max_duration_s", max_duration_s),)
    for name, value in named:
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if max_duration_s is not None and max_duration_s <= 0:
        raise DomainError(f"max_duration_s must be positive, got {max_duration_s}")
    _check_trap(omega_t, mass_kg)
    if not (0.0 < p_budget < 1.0):
        raise DomainError(f"p_budget must lie in (0, 1), got {p_budget}")
    if distance_m < 0:
        raise DomainError("distance must be >= 0")
    try:
        result = _plan(distance_m, omega_t, mass_kg, p_budget)
    except (OverflowError, ZeroDivisionError, DomainError):  # DomainError: an overflowed pulse amplitude
        result = None
    if result is None or not all(map(math.isfinite, result.as_dict().values())):
        raise NumericalError(
            f"distance_m {distance_m}, omega_t {omega_t} and mass_kg {mass_kg} "
            "take the plan out of float range"
        )
    if max_duration_s is not None and result.transit_time_s > max_duration_s:
        raise NumericalError(
            f"budget {p_budget} needs a {result.transit_time_s:.3e} s transit window, "
            f"over the {max_duration_s:.3e} s cap"
        )
    return result


def _plan(distance_m: float, omega_t: float, mass_kg: float, p_budget: float) -> TransportResult:
    """The plan for validated inputs; arithmetic may overflow."""
    if distance_m == 0.0:
        return TransportResult(0.0, 1.0 / omega_t, 0.0, 0.0, 0.0, 0.0, 0.0, True, 0.0, 0.0)
    n_target = -math.log1p(-p_budget)  # p_exact <= budget <=> |alpha|^2 <= this
    n0 = mass_kg * omega_t * distance_m**2 / (2.0 * HBAR)
    # max(.., 1) sends n0 <= n_target, and an n0 underflowed to 0, to the floor
    tau = max(math.log(max(n0 / n_target, 1.0)) / (2.0 * omega_t), 0.1 / omega_t)
    f0 = mass_kg * omega_t * distance_m / math.pi
    pulse = LorentzianPulse(f0_n=f0, tau_s=tau)
    # tau meets the budget only up to rounding: lengthen it by 1, 2, 4, ...
    # ulps until p_exact <= p_budget holds exactly (at tau = inf, p_exact = 0)
    step = math.ulp(tau)
    while (p := excitation_exact(pulse, omega_t, mass_kg)) > p_budget:
        pulse = LorentzianPulse(f0_n=f0, tau_s=pulse.tau_s + step)
        step *= 2.0
    tau = pulse.tau_s
    transit = 2.0 * tau * math.tan(TRANSIT_COVERAGE * math.pi / 2.0)
    p1 = excitation_first_order(pulse, omega_t, mass_kg)
    dv = impulse(pulse) / mass_kg

    # deterministic phase (1/hbar) Int M w^2 q0(t)^2/2 dt over the window,
    # with q0(t) = d (1/2 + atan(t/tau)/pi)
    phase = mass_kg * omega_t**2 * distance_m**2 * tau * PHASE_INTEGRAL_K / (2.0 * HBAR)

    result = TransportResult(
        distance_m=distance_m,
        tau_s=tau,
        transit_time_s=transit,
        impulse_kg_m_s=impulse(pulse),
        kinetic_gain_j=0.5 * mass_kg * dv * dv,
        p_first_order=p1,
        p_exact=p,
        adiabatic=p <= p_budget,
        peak_speed_m_s=distance_m / (math.pi * tau),
        phase_rad=phase,
    )
    return result
