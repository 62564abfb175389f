"""Two-spin gate constructions and the stirred-coupling effective model.

The architecture's native couplings are Heisenberg (contact exchange,
sigma.sigma) and anisotropic magnetic dipole-dipole.  A radio-frequency
"stirring" drive on the second spin averages the anisotropic term down to
a pure Ising sigma_z sigma_z coupling; this module builds the driven
two-spin Hamiltonian, its rotating-wave effective form, and the gate set
(swap, Ising phase gate, XOR and compositions) together with fidelity
reporting for the approximation.

It also owns every fixed matrix that the schedule simulation and the gate
check apply: the one-bit table, PHASE(theta), the Ising pulse, the one-pulse
swap and the Ising phase gate (the last two built once, at import), and the
matrix of each logical gate.

All Hamiltonians here are in angular-frequency units (rad/s); conversions
from Hz happen at the module boundary only.  Matrices are rows of plain
complex numbers (see ``operators``), so the module runs without numpy.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, NumericalError
from .record import Record
from . import operators as ops

SWAP = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
CNOT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
HADAMARD = ((1 / math.sqrt(2), 1 / math.sqrt(2)), (1 / math.sqrt(2), -1 / math.sqrt(2)))
# the fixed one-bit gates; PHASE takes an angle, see phase()
ONEBIT = {"X": ((0, 1), (1, 0)), "Z": ((1, 0), (0, -1)), "H": HADAMARD, "S": ((1, 0), (0, 1j))}
STEP_DOUBLING_TOL = 1e-4  # the largest step-doubling distance rwa_fidelity accepts

_S1Z = ops.pauli("z", 0, 2)
_S2Z = ops.pauli("z", 1, 2)
_S2P = ops.pauli("+", 1, 2)
_S2M = ops.pauli("-", 1, 2)
_ZZ = ops.matmul(_S1Z, _S2Z)
_DOT = ops.heisenberg_coupling(0, 1, 2)


class StirringParams(Record):
    """Inputs of the driven two-spin model.

    omega1, omega2: Zeeman splittings (rad/s); omega_s, rabi: stirring
    drive frequency and Rabi frequency (rad/s); gamma_e_hz: dipole
    strength at the working separation (Hz); alignment: (Rhat.zhat)^2.
    """

    omega1: float
    omega2: float
    omega_s: float
    rabi: float
    gamma_e_hz: float
    alignment: float

    def _check(self):
        if not (0.0 <= self.alignment <= 1.0):
            raise DomainError(f"alignment must lie in [0, 1], got {self.alignment}")
        for name in ("omega1", "omega2", "omega_s", "rabi", "gamma_e_hz"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


class GateReport(Record):
    name: str
    target: tuple | list  # rows of complex numbers, as ``operators`` takes them
    achieved: tuple | list
    fidelity: float
    global_phase: float
    step_doubling_distance: float | None = None  # set by rwa_fidelity only

    @property
    def max_norm_error(self) -> float:
        return ops.operator_distance(self.achieved, self.target)

    def as_dict(self) -> dict:
        return {
            "gate": self.name,
            "fidelity": self.fidelity,
            "global_phase": self.global_phase,
            "max_norm_error": self.max_norm_error,
        }


def heisenberg_swap(pulse_area: float) -> list:
    """exp(-i * area * sigma1.sigma2).  At area = pi/4 this is e^{-i pi/4} SWAP."""
    return ops.expm_h(_DOT, pulse_area)


def ising_phase_gate() -> list:
    """e^{i pi/4 z z} e^{i pi/4 z1} e^{i pi/4 z2} = e^{-i pi/4} diag(-1,1,1,1)."""
    quarter = -math.pi / 4  # expm_h computes exp(-i H t)
    return ops.matmul(ops.expm_h(_ZZ, quarter), ops.expm_h(_S1Z, quarter), ops.expm_h(_S2Z, quarter))


def phase(theta: float) -> list:
    """PHASE(theta) = diag(1, e^{i theta})."""
    return ops.diag([1, cmath.exp(1j * theta)])


def ising_pulse(phi: float) -> list:
    """exp(+i phi sigma_z sigma_z) = diag(e^{i phi}, e^{-i phi}, e^{-i phi}, e^{i phi})."""
    plus, minus = cmath.exp(1j * phi), cmath.exp(-1j * phi)
    return ops.diag([plus, minus, minus, plus])


# e^{-i pi/4} SWAP and e^{-i pi/4} diag(-1, 1, 1, 1), each built once
ONE_PULSE_SWAP = tuple(map(tuple, heisenberg_swap(math.pi / 4)))
ISING_PHASE_GATE = tuple(map(tuple, ising_phase_gate()))
_LOGICAL = {"X": ONEBIT["X"], "Z": ONEBIT["Z"], "H": HADAMARD, "XOR": CNOT, "SWAP": SWAP, "PHASE": ISING_PHASE_GATE}


def logical_matrix(name: str, param: float | None = None):
    """The matrix of logical gate ``name`` (see ``scheduler.GATES``); PHASE1
    is phase(param) and PHASE the Ising phase gate."""
    return phase(param) if name == "PHASE1" else _LOGICAL[name]


def xor_gate(control: int, target: int) -> list:
    """Controlled-NOT built from the Ising phase gate.

    Conjugating the phase gate with target Hadamards and stripping the
    residual single-spin phases with plain Z rotations gives the canonical
    CNOT up to the fixed global phase e^{3 i pi/4}.
    """
    if control == target or {control, target} != {0, 1}:
        raise DomainError("control and target must be distinct sites of a 2-spin space")
    h_t = ops.embed(HADAMARD, [target], 2)
    return ops.matmul(h_t, _ZZ, ISING_PHASE_GATE, h_t)


def swap_from_xors() -> list:
    """XOR(0,1) XOR(1,0) XOR(0,1); equals SWAP up to a global phase."""
    return ops.matmul(xor_gate(0, 1), xor_gate(1, 0), xor_gate(0, 1))


def stirring_hamiltonian(p: StirringParams, t: float) -> list:
    """Driven two-spin Hamiltonian at time t, rad/s.

    H(t) = w1 s1z + w2 s2z + rabi (s2+ e^{-i w_s t} + h.c.)
           + gamma [ sigma1.sigma2 - 3 alignment s1z s2z ]
    """
    gamma = 2.0 * math.pi * p.gamma_e_hz
    drive = p.rabi * cmath.exp(-1j * p.omega_s * t)
    return ops.lincomb((p.omega1, _S1Z), (p.omega2, _S2Z), (drive, _S2P), (drive.conjugate(), _S2M),
                       (gamma, _DOT), (-3.0 * p.alignment * gamma, _ZZ))


def stirring_generator(p: StirringParams) -> list:
    """G = (w_s / 2)(s1z + s2z), rad/s, the frame in which the drive stands
    still: stirring_hamiltonian(p, t) = R(t) stirring_hamiltonian(p, 0) R(t)^dag
    with R(t) = exp(-i G t).  G commutes with the Zeeman terms, zz and
    sigma1.sigma2, and R(t) s2+ R(t)^dag = e^{-i w_s t} s2+.
    """
    return ops.lincomb((0.5 * p.omega_s, _S1Z), (0.5 * p.omega_s, _S2Z))


def effective_hamiltonian(p: StirringParams) -> list:
    """Rotating-wave effective Hamiltonian, rad/s.

    H_eff = gamma (1 - 3 alignment) s1z s2z + w1 s1z + (w2 - w_s) s2z
            + rabi (s2+ + s2-)
    """
    gamma = 2.0 * math.pi * p.gamma_e_hz
    return ops.lincomb((gamma * (1.0 - 3.0 * p.alignment), _ZZ), (p.omega1, _S1Z), (p.omega2 - p.omega_s, _S2Z),
                       (p.rabi, _S2P), (p.rabi, _S2M))


def rwa_fidelity(p: StirringParams, duration_s: float, steps: int) -> GateReport:
    """Exact driven evolution vs the effective model, in the rotating frame.

    Evolves the full Hamiltonian over [0, duration], applies the frame
    rotation e^{+i w_s T s2z}, and compares against exp(-i H_eff T).
    A step-doubling check guards the time discretization: the half-step
    propagator must agree with the full-step one within ``STEP_DOUBLING_TOL``;
    their distance is reported as ``step_doubling_distance``.  ``steps``
    must be at least 2, so that the half-step run is a different one.
    """
    if steps < 2:
        raise DomainError(f"step doubling needs at least 2 steps, got {steps}")
    h0, generator = stirring_hamiltonian(p, 0.0), stirring_generator(p)
    u_exact = ops.evolve_td(h0, generator, 0.0, duration_s, steps)
    u_half = ops.evolve_td(h0, generator, 0.0, duration_s, steps // 2)
    conv = ops.operator_distance(u_half, u_exact)
    if conv > STEP_DOUBLING_TOL:
        raise NumericalError(
            f"evolution not converged at {steps} steps: step-doubling distance {conv:.2e}"
        )
    frame = ops.expm_h(_S2Z, -p.omega_s * duration_s)  # e^{+i w_s T s2z}
    achieved = ops.matmul(frame, u_exact)
    target = ops.expm_h(effective_hamiltonian(p), duration_s)
    return _report("rwa", target, achieved).replace(step_doubling_distance=conv)


def gate_identity_reports() -> list[GateReport]:
    """The fixed gate-identity checks behind the gate-check command."""
    quarter, swap = cmath.exp(-1j * math.pi / 4), swap_from_xors()
    return [
        _report("heisenberg_swap", ops.lincomb((quarter, SWAP)), ONE_PULSE_SWAP),
        _report("ising_phase_gate", ops.diag([-quarter, quarter, quarter, quarter]), ISING_PHASE_GATE),
        _report("xor_gate", CNOT, xor_gate(0, 1)),
        _report("swap_from_xors", SWAP, swap),
        _report("swap_involution", ops.diag([1] * 4), ops.matmul(swap, swap)),
    ]


def _report(name: str, target, achieved) -> GateReport:
    return GateReport(
        name=name,
        target=target,
        achieved=achieved,
        fidelity=ops.fidelity(achieved, target),
        global_phase=ops.global_phase(target, achieved),
    )


# Scan parameters for the RWA validity study.  The hierarchy matters: the
# flip-flop part of sigma.sigma is only averaged out when the two Zeeman
# splittings differ by much more than gamma (the drive frame alone cannot
# remove it), so gamma sits well below |omega2 - omega1|, which sits well
# below the stirring frequency.  The duration is deliberately incommensurate
# with the drive resonance at omega_s = 2 omega2 so micromotion revivals do
# not alias the scan grid.
RWA_SCAN_MULTIPLIERS = (100.0, 30.0, 10.0, 7.0, 5.0, 3.0)
RWA_SCAN_BASE = dict(
    omega1=2.0 * math.pi * 100.0,
    omega2=2.0 * math.pi * 2500.0,
    rabi=2.0 * math.pi * 150.0,
    gamma_e_hz=20.0,
    alignment=1.0,
)
RWA_SCAN_DURATION_S = 1.87e-4
RWA_SCAN_STEPS = 16384


def rwa_scan() -> list[dict]:
    """Fidelity of the effective model as the stirring frequency is lowered.

    ``RWA_SCAN_MULTIPLIERS`` are ratios of omega_s to the largest other
    frequency scale in the model.
    """
    base = RWA_SCAN_BASE
    scale = max(base["omega1"], base["omega2"], base["rabi"], 2.0 * math.pi * base["gamma_e_hz"])
    rows = []
    for mult in RWA_SCAN_MULTIPLIERS:
        p = StirringParams(omega_s=mult * scale, **base)
        rep = rwa_fidelity(p, RWA_SCAN_DURATION_S, RWA_SCAN_STEPS)
        rows.append({
            "omega_s_over_scale": float(mult),
            "fidelity": rep.fidelity,
            "step_doubling_distance": rep.step_doubling_distance,
        })
    return rows
