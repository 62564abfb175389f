"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import math
import time

import numpy as np

from spinbus import gates, interactions as ia, operators as ops
from spinbus import scheduler as sch
from spinbus import transport as tr
from spinbus import traps, units

REF_GEOM = dict(a_qr=400.0, a_qz=400.0, a_hr=100.0, a_hz=100.0)
RB_SCAT = ia.ScatteringParams(
    a_t_a0=110.0, a_s_a0=10.0, mass_kg=87 * units.ATOMIC_MASS
)


class Criterion:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s
        self.failures = []

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def check(self, ok, label):
        if not ok:
            self.failures.append(label)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        ok = exc_type is None and not self.failures and elapsed < self.limit_s
        print(f"{'PASS' if ok else 'FAIL'}  {self.name}  [{elapsed:.2f}s < {self.limit_s:g}s]")
        if exc_type is None:
            assert not self.failures, f"{self.name}: {self.failures}"
            assert elapsed < self.limit_s, f"{self.name}: took {elapsed:.2f}s"
        return False


def _close(value, printed, resolution, rel):
    return abs(value - printed) <= max(rel * abs(printed), 0.5000001 * resolution)


def test_criterion_red_table_reproduction():
    printed = {
        "Na": ((185.0, 1), (239.0, 1), (573.0, 1), (25.0, 1), (0.32, 0.01), (0.018, 0.001)),
        "K": ((334.0, 1), (247.0, 1), (433.0, 1), (8.7, 0.1), (0.19, 0.01), (0.014, 0.001)),
        "Rb": ((364.0, 1), (172.0, 1), (347.0, 1), (3.7, 0.1), (0.15, 0.01), (0.011, 0.001)),
        "Cs": ((458.0, 1), (156.0, 1), (295.0, 1), (2.0, 1), (0.11, 0.01), (0.009, 0.001)),
    }
    with Criterion("Red-lattice table reproduction (3%, fitted to Li)", 1.0) as c:
        spec = traps.RedLatticeSpec(depth_calibration_hz_per_a03=181e6 / traps.SPECIES["Li"].alpha0_a03)
        for name, refs in printed.items():
            r = traps.lattice_report(traps.SPECIES[name], spec)
            values = (
                r.v_max_hz / 1e6, r.nu_osc_hz / 1e3, r.a_osc_a0,
                r.recoil_resonance_hz / 1e3, r.eta0, r.eta_lattice,
            )
            for value, (p, res) in zip(values, refs):
                c.check(_close(value, p, res, 0.03), f"{name}: {value:.4g} vs {p}")


def test_criterion_blue_table_reproduction():
    printed = {
        "Li": ((4061.0, 1), (254.0, 1), (0.13, 0.01), 2.5),
        "Na": ((2530.0, 1), (176.0, 1), (0.10, 0.01), 1.6),
        "K": ((1494.0, 1), (176.0, 1), (0.076, 0.001), 0.9),
        "Rb": ((982.0, 1), (145.0, 1), (0.06, 0.01), 0.6),
        "Cs": ((727.0, 1), (137.0, 1), (0.05, 0.01), 0.5),
    }
    with Criterion("Blue-lattice table reproduction (5% rows, 10% gamma_eff)", 1.0) as c:
        for name, (nu, a, eta, geff) in printed.items():
            r = traps.lattice_report(traps.SPECIES[name], traps.BlueLatticeSpec())
            c.check(_close(r.nu_osc_hz / 1e3, nu[0], nu[1], 0.05), f"{name} nu")
            c.check(_close(r.a_osc_a0, a[0], a[1], 0.05), f"{name} a_osc")
            c.check(_close(r.eta0, eta[0], eta[1], 0.05), f"{name} eta")
            c.check(abs(r.gamma_eff_hz - geff) <= 0.10 * geff, f"{name} gamma_eff {r.gamma_eff_hz:.3f}")


def test_criterion_coupling_vs_separation():
    with Criterion("Coupling vs separation (exchange slope, asymptote, kHz window)", 10.0) as c:
        # (a) exchange exactly Gaussian in z0: slope of log|J| vs z0^2
        geom0 = ia.TrapGeometry(**REF_GEOM)
        z0s = np.array([600.0, 1000.0, 1400.0])
        vals = [ia.exchange_strength(geom0, z, RB_SCAT) for z in z0s]
        slope = np.polyfit(z0s**2, np.log(np.abs(vals)), 1)[0]
        expected = -1.0 / (2 * geom0.a_z**2)
        c.check(abs(slope - expected) <= 1e-6 * abs(expected), f"slope {slope} vs {expected}")

        # (b) dipolar average times z0^3 -> -2 within 1% from ratio 10 up
        amax = max(geom0.a_r, geom0.a_z)
        for ratio in (10.0, 12.0, 16.0):
            prod = ia.dipolar_average(geom0, ratio * amax) * units.a0_to_m(ratio * amax) ** 3
            c.check(abs(prod + 2.0) <= 0.02, f"ratio {ratio}: {prod:.4f}")

        # (c) |J| at 1000 a0 with the CODATA dipole constant: in the 100 Hz - 10 kHz window
        j_hz = ia.GAMMA_E_A0_HZ * units.BOHR_RADIUS**3 * ia.dipolar_average(geom0, 1000.0)
        c.check(100.0 <= abs(j_hz) <= 10_000.0, f"|J| = {abs(j_hz):.1f} Hz")


def test_criterion_oracle_equivalence():
    # The suite keeps z0 >= 5 a_z.  There the contact term (8 pi/3) p_R(0),
    # by which the sampler's spherical mean differs from the quadrature's
    # slab value, has fallen to exp(-12.5) = 4e-6 of its size at z0 = 0;
    # closer in, an MC that did not subtract it was off by several stderr.
    # a_r is unconstrained, so strongly non-asymptotic transverse
    # geometries are still exercised.
    with Criterion("Oracle equivalence (quadrature vs MC, 20 geometries)", 60.0) as c:
        rng = np.random.default_rng(20260810)
        agree = 0
        for k in range(20):
            sizes = rng.uniform(80.0, 500.0, size=4)
            geom = ia.TrapGeometry(*sizes)
            z0 = rng.uniform(5.0, 8.0) * geom.a_z
            quad = ia.dipolar_average(geom, z0)
            mc = ia.dipolar_average_mc(geom, z0, 1_000_000, seed=1000 + k)
            if abs(quad - mc.value_m3) <= 3.0 * mc.stderr_m3:
                agree += 1
        c.check(agree >= 19, f"only {agree}/20 within 3 sigma")


def test_criterion_gate_identities():
    with Criterion("Gate identities (max-norm < 1e-10)", 1.0) as c:
        swap = gates.heisenberg_swap(math.pi / 4)
        c.check(
            float(np.max(np.abs(swap - np.exp(-1j * math.pi / 4) * np.asarray(gates.SWAP)))) < 1e-10,
            "heisenberg_swap",
        )
        phase = gates.ising_phase_gate()
        target = np.exp(-1j * math.pi / 4) * np.diag([-1.0, 1, 1, 1]).astype(complex)
        c.check(float(np.max(np.abs(phase - target))) < 1e-10, "ising_phase_gate")
        sfx = gates.swap_from_xors()
        c.check(ops.operator_distance(sfx, gates.SWAP) < 1e-10, "swap_from_xors")


def test_criterion_rwa_verification():
    with Criterion("RWA verification (>= 0.999 at 100x, monotone below 10x)", 30.0) as c:
        rows = gates.rwa_scan()
        fids = [r["fidelity"] for r in rows]
        c.check(fids[0] >= 0.999, f"fidelity at 100x: {fids[0]:.6f}")
        for (ra, rb) in zip(rows, rows[1:]):
            c.check(
                rb["fidelity"] <= ra["fidelity"] + 1e-3,
                f"non-monotone at {rb['omega_s_over_scale']}x",
            )
        c.check(fids[-1] < fids[0] - 1e-3, "no visible degradation at 3x")


def test_criterion_transport():
    omega_t = 2 * math.pi * 982_323.0
    mass = 87 * units.ATOMIC_MASS
    with Criterion("Transport (first order vs exact, affine law, reshaping)", 10.0) as c:
        # agreement within 5% whenever p < 1e-2
        checked = 0
        for tau in np.linspace(2.2e-6, 4.0e-6, 16):
            pulse = tr.LorentzianPulse(f0_n=3e-22, tau_s=float(tau))
            p1 = tr.excitation_first_order(pulse, omega_t, mass)
            p = tr.excitation_exact(pulse, omega_t, mass)
            if p < 1e-2:
                checked += 1
                c.check(abs(p1 - p) / p < 0.05, f"tau {tau}: p1 {p1} vs p {p}")
        c.check(checked >= 5, "scan never entered the p < 1e-2 window")

        # ln p affine in w tau, residual < 1e-3
        taus = np.linspace(1.2e-6, 2.2e-6, 9)
        x = omega_t * taus
        y = [
            math.log(tr.excitation_exact(tr.LorentzianPulse(1e-25, float(t)), omega_t, mass))
            for t in taus
        ]
        coeffs = np.polyfit(x, y, 1)
        resid = float(np.max(np.abs(np.polyval(coeffs, x) - y)))
        c.check(resid < 1e-3, f"fit residual {resid:.2e}")

        # reshaping invariance at fixed |F~(w_t)|
        narrow = tr.LorentzianPulse(f0_n=1e-21, tau_s=1.0e-6)
        target_ft = tr.fourier_magnitude(narrow, omega_t)
        t = np.linspace(-60e-6, 60e-6, 1_200_001)
        raw = 1.0 / (1.44e-12 + (t - 2.4e-6) ** 2) + 1.0 / (1.44e-12 + (t + 2.4e-6) ** 2)
        ft_raw = abs(np.trapezoid(raw * np.exp(1j * omega_t * t), t))
        reshaped = raw * (target_ft / ft_raw)
        ft_b = abs(np.trapezoid(reshaped * np.exp(1j * omega_t * t), t))
        p_a = tr.excitation_exact(narrow, omega_t, mass)
        p_b = -math.expm1(-(ft_b**2) / (2 * mass * units.HBAR * omega_t))
        c.check(abs(p_a - p_b) / p_a < 1e-6, f"reshaping changed p: {p_a} vs {p_b}")


def test_criterion_end_to_end_compilation():
    with Criterion("End-to-end compilation (<= 3 gates, fidelity 1 - 1e-9)", 30.0) as c:
        register = sch.Register(n_qubits=2)
        instances = [
            "X q0", "X q1", "H q0", "H q1", "Z q0", "Z q1",
            "XOR q0 q1", "XOR q1 q0", "SWAP q0 q1",
        ]
        count = 0
        worst = 1.0
        for length in range(4):
            for combo in itertools.product(instances, repeat=length):
                circuit = sch.parse_circuit("\n".join(combo))
                schedule = sch.compile_circuit(circuit, register)
                v = sch.verify_schedule(schedule)
                worst = min(worst, v["fidelity"])
                if v["fidelity"] < 1 - 1e-9 or not v["matches"]:
                    c.check(False, f"{combo}: fidelity {v['fidelity']}")
                count += 1
        c.check(count == 820, f"enumerated {count} circuits")
        print(f"      820 circuits, worst fidelity deficit {1 - worst:.2e}")
