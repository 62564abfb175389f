"""Output checks that do not trust the program under test.

The logical-circuit interpreter here hard-codes its gate matrices and
imports nothing from spinbus, so a compiled schedule is compared against
an independent reference, not against the compiler's own idea of the
circuit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

_SQ2 = math.sqrt(0.5)
_ONE = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
}
_TWO = {
    "XOR": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    # exp(+i pi/4 zz) exp(+i pi/4 z1) exp(+i pi/4 z2) = e^{-i pi/4} diag(-1, 1, 1, 1)
    "PHASE": np.exp(-0.25j * math.pi) * np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex),
}
SCHEDULE_TOLERANCE = 1e-9
MC_SIGMAS = 4.0


def gate_matrix(name: str, param: float | None) -> np.ndarray:
    if name == "PHASE1":
        return np.diag([1.0, np.exp(1j * param)])
    return _ONE[name] if name in _ONE else _TWO[name]


def logical_unitary(gates, n_qubits: int) -> np.ndarray:
    """Unitary of a logical circuit; qubit 0 is the most significant factor."""
    dim = 2**n_qubits
    u = np.eye(dim, dtype=complex).reshape((2,) * n_qubits + (dim,))
    for name, qubits, param in gates:
        k = len(qubits)
        m = gate_matrix(name, param).reshape((2,) * (2 * k))
        u = np.tensordot(m, u, axes=(list(range(k, 2 * k)), list(qubits)))
        u = np.moveaxis(u, list(range(k)), list(qubits))
    return u.reshape(dim, dim)


def schedule_problems(simulated: np.ndarray, circuit, n_headers: int, global_phase_rad: float) -> list[str]:
    """The simulated schedule must equal e^{i phase} (U_logical x I_headers)."""
    expected = np.exp(1j * global_phase_rad) * np.kron(
        logical_unitary(circuit.gates, circuit.n_qubits), np.eye(2**n_headers)
    )
    if simulated.shape != expected.shape:
        return [f"simulated shape {simulated.shape}, expected {expected.shape}"]
    err = float(np.max(np.abs(simulated - expected)))
    return [] if err < SCHEDULE_TOLERANCE else [f"schedule differs from the reference by {err:.3e}"]


def nonfinite(doc, path="$") -> list[str]:
    """Paths of every NaN or infinite number in a parsed JSON document."""
    if isinstance(doc, float):
        return [] if math.isfinite(doc) else [path]
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in nonfinite(v, f"{path}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in nonfinite(v, f"{path}[{i}]")]
    return []


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def csv_problems(text: str, text_fields=("species", "lattice", "method")) -> list[str]:
    rows = csv_rows(text)
    if not rows:
        return ["empty table"]
    bad = []
    for i, row in enumerate(rows):
        for key, val in row.items():
            if key in text_fields or val == "":
                continue
            try:
                if not math.isfinite(float(val)):
                    bad.append(f"row {i} {key}={val}")
            except ValueError:
                bad.append(f"row {i} {key}={val!r} is not a number")
    return bad


def json_problems(text: str) -> tuple[object, list[str]]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return None, [f"not JSON: {exc}"]
    return doc, [f"non-finite number at {p}" for p in nonfinite(doc)]


def mc_problems(mc_text: str, quad_text: str) -> list[str]:
    """Each Monte Carlo row within MC_SIGMAS of the quadrature at its z0."""
    quad = {row["z0_a0"]: float(row["J_dipolar_Hz"]) for row in csv_rows(quad_text)}
    bad = []
    for row in csv_rows(mc_text):
        ref = quad.get(row["z0_a0"])
        if ref is None:
            bad.append(f"no quadrature reference at z0={row['z0_a0']}")
            continue
        value, err = float(row["J_dipolar_Hz"]), float(row["stderr_Hz"])
        if not abs(value - ref) <= MC_SIGMAS * err:
            bad.append(f"z0={row['z0_a0']}: MC {value} vs quadrature {ref} beyond {MC_SIGMAS} sigma ({err})")
    return bad
