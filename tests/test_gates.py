import cmath
import math

import numpy as np
import pytest

from spinbus import gates, operators as ops, scheduler
from spinbus.errors import DomainError, NumericalError

PI4 = math.pi / 4
SWAP, CNOT = np.asarray(gates.SWAP, dtype=complex), np.asarray(gates.CNOT, dtype=complex)


def _pauli(axis, site, n_sites):
    return np.asarray(ops.pauli(axis, site, n_sites))


def basis(n, *bits):
    v = np.zeros(2**n, dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    v[idx] = 1.0
    return v


def test_heisenberg_swap_identity():
    u = gates.heisenberg_swap(PI4)
    assert np.max(np.abs(u - np.exp(-1j * PI4) * SWAP)) < 1e-10


def test_heisenberg_swap_on_basis_states():
    u = gates.heisenberg_swap(PI4)
    assert np.allclose(u @ basis(2, 0, 1), np.exp(-1j * PI4) * basis(2, 1, 0), atol=1e-12)
    assert np.allclose(u @ basis(2, 0, 0), np.exp(-1j * PI4) * basis(2, 0, 0), atol=1e-12)
    assert np.allclose(gates.heisenberg_swap(0.0), np.eye(4), atol=1e-15)


def test_ising_phase_gate_matrix():
    u = gates.ising_phase_gate()
    expected = np.exp(-1j * PI4) * np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
    assert np.max(np.abs(u - expected)) < 1e-10
    # diagonal in the computational basis
    assert np.max(np.abs(u - np.diag(np.diag(u)))) < 1e-14
    cz00 = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
    assert ops.fidelity(u, cz00) == pytest.approx(1.0, abs=1e-12)


def test_xor_gate_truth_table():
    u = gates.xor_gate(0, 1)
    phase = ops.global_phase(gates.CNOT, u)
    for inp, out in (((1, 0), (1, 1)), ((0, 1), (0, 1)), ((0, 0), (0, 0)), ((1, 1), (1, 0))):
        got = u @ basis(2, *inp)
        assert np.allclose(got, np.exp(1j * phase) * basis(2, *out), atol=1e-12)
    assert ops.fidelity(u, gates.CNOT) == pytest.approx(1.0, abs=1e-10)


def test_xor_gate_control_target_roles():
    u10 = gates.xor_gate(1, 0)
    swapped = SWAP @ CNOT @ SWAP
    assert ops.fidelity(u10, swapped) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        gates.xor_gate(0, 0)


def test_swap_from_xors():
    u = np.asarray(gates.swap_from_xors())
    assert ops.fidelity(u, gates.SWAP) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(u @ basis(2, 0, 1), np.exp(1j * ops.global_phase(gates.SWAP, u)) * basis(2, 1, 0), atol=1e-12)
    # involution up to phase
    assert ops.fidelity(u @ u, np.eye(4, dtype=complex)) == pytest.approx(1.0, abs=1e-10)


def test_all_gate_identities_unitary_and_tight():
    for rep in gates.gate_identity_reports():
        assert ops.is_unitary(rep.achieved, 1e-10)
        assert rep.fidelity >= 1 - 1e-10
        assert rep.max_norm_error < 1e-10
        d = rep.as_dict()
        assert set(d) == {"gate", "fidelity", "global_phase", "max_norm_error"}


def test_onebit_table_holds_the_literal_gates():
    r = 1 / math.sqrt(2)
    assert gates.ONEBIT == {
        "X": ((0, 1), (1, 0)),
        "Z": ((1, 0), (0, -1)),
        "H": ((r, r), (r, -r)),
        "S": ((1, 0), (0, 1j)),
    }


@pytest.mark.parametrize("theta", [-math.pi, -math.pi / 2, 0.3, math.pi])
def test_phase_is_diag_one_exp_i_theta(theta):
    assert gates.phase(theta) == [[1, 0], [0, cmath.exp(1j * theta)]]


@pytest.mark.parametrize("phi", [PI4, -1.3])
def test_ising_pulse_is_the_exponential_of_zz(phi):
    zz = ops.matmul(ops.pauli("z", 0, 2), ops.pauli("z", 1, 2))
    assert np.max(np.abs(np.asarray(gates.ising_pulse(phi)) - ops.expm_h(zz, -phi))) <= 1e-15


def test_built_once_swap_and_phase_gate():
    quarter = np.exp(-1j * PI4)
    assert np.max(np.abs(np.asarray(gates.ONE_PULSE_SWAP) - quarter * SWAP)) <= 1e-12
    assert np.max(np.abs(np.asarray(gates.ISING_PHASE_GATE) - quarter * np.diag([-1, 1, 1, 1]))) <= 1e-12


@pytest.mark.parametrize("name", list(scheduler.GATES))
def test_every_logical_gate_has_a_matrix_of_its_arity(name):
    arity, takes_angle = scheduler.GATES[name]
    m = gates.logical_matrix(name, 0.3 if takes_angle else None)
    assert len(m) == 2**arity and all(len(row) == 2**arity for row in m)


def test_gate_check_and_simulation_reuse_the_built_once_matrices(monkeypatch):
    def rebuilt(*args):
        raise AssertionError("a built-once matrix was built again")

    monkeypatch.setattr(gates, "heisenberg_swap", rebuilt)
    monkeypatch.setattr(gates, "ising_phase_gate", rebuilt)
    assert all(rep.max_norm_error < 1e-10 for rep in gates.gate_identity_reports())
    circuit = scheduler.parse_circuit("XOR q0 q1\nSWAP q1 q0\nPHASE q0 q1\nPHASE1 q1 0.3\n")
    assert scheduler.verify_schedule(scheduler.compile_circuit(circuit, scheduler.Register(n_qubits=2)))["matches"]


def _params(**kw):
    base = dict(
        omega1=2 * math.pi * 100.0,
        omega2=2 * math.pi * 2500.0,
        omega_s=2 * math.pi * 250_000.0,
        rabi=2 * math.pi * 150.0,
        gamma_e_hz=20.0,
        alignment=1.0,
    )
    base.update(kw)
    return gates.StirringParams(**base)


def test_stirring_hamiltonian_zeeman_only():
    p = _params(rabi=0.0, gamma_e_hz=0.0)
    h = gates.stirring_hamiltonian(p, t=0.123)
    expected = p.omega1 * _pauli("z", 0, 2) + p.omega2 * _pauli("z", 1, 2)
    assert np.max(np.abs(h - expected)) < 1e-12


def test_stirring_hamiltonian_hermitian_at_random_times():
    p = _params()
    rng = np.random.default_rng(1)
    for t in rng.uniform(0, 1e-3, size=8):
        assert ops.is_hermitian(gates.stirring_hamiltonian(p, t))


def test_stirring_magic_alignment_leaves_transverse_coupling():
    # at alignment 1/3 the zz part of the dipole bracket cancels exactly
    p = _params(omega1=0.0, omega2=0.0, rabi=0.0, alignment=1.0 / 3.0)
    h = gates.stirring_hamiltonian(p, 0.0)
    gam = 2 * math.pi * p.gamma_e_hz
    xx = _pauli("x", 0, 2) @ _pauli("x", 1, 2)
    yy = _pauli("y", 0, 2) @ _pauli("y", 1, 2)
    assert np.max(np.abs(h - gam * (xx + yy))) < 1e-9


def test_effective_hamiltonian_limits():
    zz = _pauli("z", 0, 2) @ _pauli("z", 1, 2)
    # magic alignment kills the Ising coefficient
    p = _params(alignment=1.0 / 3.0, omega1=0.0, rabi=0.0)
    h = gates.effective_hamiltonian(_params(alignment=1.0 / 3.0, omega1=0.0, omega2=p.omega_s, rabi=0.0))
    assert np.max(np.abs(h)) < 1e-9
    # on-resonance stirring with no drive and no first-spin Zeeman: pure zz
    p = _params(omega1=0.0, rabi=0.0)
    h = gates.effective_hamiltonian(gates.StirringParams(0.0, p.omega_s, p.omega_s, 0.0, 20.0, 1.0))
    gam = 2 * math.pi * 20.0
    assert np.max(np.abs(h - (-2.0 * gam) * zz)) < 1e-9


def test_alignment_validation():
    with pytest.raises(DomainError):
        _params(alignment=1.5)


def test_stirring_params_refuse_a_non_finite_field():
    with pytest.raises(DomainError, match="rabi must be finite"):
        _params(rabi=math.nan)


def test_rwa_exact_when_undriven_uncoupled():
    p = _params(rabi=0.0, gamma_e_hz=0.0, omega_s=12345.0)
    rep = gates.rwa_fidelity(p, duration_s=1e-3, steps=64)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-8)


def test_rwa_high_separation_fidelity():
    scale = max(gates.RWA_SCAN_BASE["omega2"], gates.RWA_SCAN_BASE["rabi"])
    p = gates.StirringParams(omega_s=100.0 * scale, **gates.RWA_SCAN_BASE)
    rep = gates.rwa_fidelity(p, gates.RWA_SCAN_DURATION_S, gates.RWA_SCAN_STEPS)
    assert rep.fidelity >= 0.999


def test_rwa_convergence_guard():
    p = _params()
    with pytest.raises(NumericalError):
        gates.rwa_fidelity(p, duration_s=1e-3, steps=4)


@pytest.mark.parametrize("steps", [0, 1])
def test_rwa_refuses_fewer_than_two_steps(steps):
    # one step would be compared with itself (steps // 2 -> 1 at best), so
    # the step-doubling guard would pass with distance 0 whatever the error
    p = gates.StirringParams(omega_s=3.0 * gates.RWA_SCAN_BASE["omega2"], **gates.RWA_SCAN_BASE)
    with pytest.raises(DomainError, match="at least 2 steps"):
        gates.rwa_fidelity(p, gates.RWA_SCAN_DURATION_S, steps)


def test_driven_vs_effective_operator_distance_at_1000x():
    # with the stirring frequency 1000x above every other scale, the two
    # propagators agree beyond fidelity: phase-aligned max-norm <= 1e-2.
    # The flip-flop micromotion floor is ~ gamma/|omega1 - omega2|, so the
    # coupling sits a factor ~500 below the Zeeman mismatch here.
    base = dict(gates.RWA_SCAN_BASE, gamma_e_hz=5.0)
    scale = max(base["omega2"], base["rabi"])
    p = gates.StirringParams(omega_s=1000.0 * scale, **base)
    rep = gates.rwa_fidelity(p, duration_s=5e-5, steps=16384)
    assert rep.max_norm_error <= 1e-2


@pytest.mark.parametrize(
    "kw",
    [{}, {"alignment": 1.0 / 3.0}, {"rabi": 0.0}, {"omega1": -3e4, "gamma_e_hz": 400.0, "alignment": 0.2}],
)
def test_stirring_hamiltonian_is_a_rotated_copy_of_h0(kw):
    # H(t) = R(t) H(0) R(t)^dag with R(t) = exp(-i G t): the symmetry evolve_td relies on
    p = _params(**kw)
    h0, g = np.asarray(gates.stirring_hamiltonian(p, 0.0)), gates.stirring_generator(p)
    rng = np.random.default_rng(5)
    for t in rng.uniform(-1e-3, 1e-3, size=6):
        r = np.asarray(ops.expm_h(g, t))
        h = gates.stirring_hamiltonian(p, t)
        assert np.max(np.abs(h - r @ h0 @ r.conj().T)) <= 1e-9 * np.max(np.abs(h))


# rwa_scan fidelities from the step-by-step midpoint product that preceded the
# matrix-power propagator.  At 100x and 3x a 40-digit mpmath evaluation of the
# midpoint product puts these 1.6e-12, and the matrix power 4e-13, from exact.
RWA_SCAN_FIDELITIES = (
    0.9999929135982477,
    0.9999929191035541,
    0.999949119140247,
    0.9998581054827986,
    0.9994086696261557,
    0.9932569389008168,
)


def test_rwa_scan_fidelities_pinned():
    rows = gates.rwa_scan()
    assert [r["omega_s_over_scale"] for r in rows] == list(gates.RWA_SCAN_MULTIPLIERS)
    for row, want in zip(rows, RWA_SCAN_FIDELITIES, strict=True):
        assert abs(row["fidelity"] - want) <= 1e-11
        assert 0.0 < row["step_doubling_distance"] <= 1e-4
