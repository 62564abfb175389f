"""Benchmark inputs, generated from the workload seed alone.

The program under test receives only what these functions produce: circuit
text, command-line arguments and the Monte Carlo seed.  The same seed gives
byte-identical inputs, summarised by ``digest``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

ONE_QUBIT_GATES = ("X", "Z", "H", "PHASE1")
TWO_QUBIT_GATES = ("XOR", "SWAP", "PHASE")

# The Monte Carlo scan sits at z0 >= 5 a_z (a_z = 412 a0 for the default
# geometry), the range where the program documents its sample stderr as a
# valid yardstick; closer in the estimator's error is heavy-tailed.  The
# sampling cost does not depend on z0.
MC_SCAN = ("--z0-min", "2100", "--z0-max", "2400", "--points", "4")
MC_SAMPLES = "1000000"
QUAD_SCAN = ("--z0-min", "200", "--z0-max", "2500", "--points", "60")
TRANSPORT_BUDGET = "1e-4"
CLI_CIRCUIT_QUBITS = 3
CLI_CIRCUIT_GATES = 40

# compile_verify: one circuit per (qubits, swap primitive, single-bit mode)
# stratum, lengths spread evenly over 10..300 gates.  The modes that emit the
# most primitives per gate get the shorter circuits, which keeps one cycle
# near two seconds.  Only the gates themselves are random, so the work per
# cycle barely moves with the seed.
CV_PARAMS = (("xors", "mediated"), ("xors", "direct"), ("heisenberg", "mediated"), ("heisenberg", "direct"))
CV_LENGTHS = tuple(round(10 + 290 * k / 11) for k in range(12))
CV_RATES_HZ = {"gamma_eff_blue": 0.6, "red_scattering": 0.0083}



@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple
    swap_primitive: str = "heisenberg"
    single_bit_mode: str = "direct"

    @property
    def text(self) -> str:
        lines = []
        for name, qubits, param in self.gates:
            args = " ".join(f"q{q}" for q in qubits)
            lines.append(f"{name} {args}" + ("" if param is None else f" {param!r}"))
        return "\n".join(lines) + "\n"


def random_circuit(rng: random.Random, n_qubits: int, n_gates: int, **params) -> Circuit:
    gates = []
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.5:
            a, b = rng.sample(range(n_qubits), 2)
            gates.append((rng.choice(TWO_QUBIT_GATES), (a, b), None))
        else:
            name = rng.choice(ONE_QUBIT_GATES)
            param = rng.uniform(-math.pi, math.pi) if name == "PHASE1" else None
            gates.append((name, (rng.randrange(n_qubits),), param))
    return Circuit(n_qubits, tuple(gates), **params)


def cli_circuit(seed: int) -> Circuit:
    return random_circuit(random.Random(f"cli-{seed}"), CLI_CIRCUIT_QUBITS, CLI_CIRCUIT_GATES)


def mc_seed(seed: int) -> int:
    return random.Random(f"mc-{seed}").randrange(1, 2**31)


def compile_verify_circuits(seed: int) -> list[Circuit]:
    rng = random.Random(f"cv-{seed}")
    return [
        random_circuit(rng, n, CV_LENGTHS[3 * k + n - 1], swap_primitive=swap, single_bit_mode=mode)
        for k, (swap, mode) in enumerate(CV_PARAMS)
        for n in (1, 2, 3)
    ]


def warmup_circuit() -> Circuit:
    return random_circuit(random.Random("warm-up"), 3, 20)


def digest(doc) -> str:
    """sha256 of a JSON-serialisable description of the inputs."""
    blob = json.dumps(doc, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()
