"""Compile logical circuits into timed physical schedules.

The register is a 1-D chain of stationary qubit atoms spaced half a CO2
wavelength apart, plus a movable header atom parked between sites.  Every
two-qubit gate follows the three-step protocol: fetch the first operand
into the header by a state swap, carry it to the second operand and apply
the Ising-pulse gate there, then carry it back and swap again.  Single-bit
gates are applied directly or, optionally, mediated the same way.

Phases are never silently dropped: each primitive block contributes a
known global phase (the one-pulse swap carries e^{-i pi/4}, the dressed
CNOT block e^{+i pi/4}) which is accumulated in the schedule's phase
ledger, so simulation can check the compiled unitary against the logical
one exactly, not just up to phase.

A MOVE departs from wherever the header currently is (trajectory
continuity); it may span several sites in one primitive.  The header is
left at the last gate site rather than re-parked, so a lone two-qubit gate
compiles to exactly three MOVEs.  Every primitive is emitted in one step,
which clocks it and charges the idle crosstalk of the parked header per
primitive, from the qubit nearest the header, so compile time does not grow
with the register.  The schedule loader re-emits a file's primitives through
the same step, so what it loads runs on the compiler's clock.

Parsing, compiling, budgeting and JSON need no arrays.  The simulation
functions import ``gates``, which owns every gate matrix, when they are
called; numpy only builds and checks the dense 2^(n+1) product.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from operator import add

from .config import CompileParams
from .errors import DomainError, NumericalError, SpinBusError
from .jsonio import checked_fields, dumps, loads_finite
from .record import Record
from .transport import plan_transport
from .traps import CO2_WAVELENGTH_M
from .units import BOHR_RADIUS

SIMULATION_QUBIT_CAP = 8  # plus the header: 9 sites, a dense 512x512 unitary
BUDGET_FLAG_RATIO = 0.1  # a schedule longer than this share of the coherence time is flagged

# logical gate -> (qubit count, takes an angle)
GATES = {"X": (1, False), "Z": (1, False), "H": (1, False), "PHASE1": (1, True),
         "XOR": (2, False), "SWAP": (2, False), "PHASE": (2, False)}
TWO_QUBIT_GATES = tuple(name for name, (n_qubits, _) in GATES.items() if n_qubits == 2)
ONEBIT_GATES = ("X", "Z", "H", "S", "PHASE")  # gates of a one-bit primitive; only PHASE takes an angle


class LogicalGate(Record):
    name: str
    qubits: tuple[int, ...]
    param: float | None = None

    def text(self) -> str:
        args = " ".join(f"q{i}" for i in self.qubits)
        if self.param is not None:
            return f"{self.name} {args} {self.param!r}"
        return f"{self.name} {args}"


def parse_circuit(text: str) -> list[LogicalGate]:
    """Parse line-oriented circuit text: one gate per line, ``#`` comments.

    Grammar: ``X q0`` / ``Z q1`` / ``H q0`` / ``PHASE1 q0 <angle>`` for
    single-bit gates, ``XOR q0 q1`` / ``SWAP q0 q1`` / ``PHASE q0 q1``
    for two-qubit ones.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *args = line.split()
        name = name.upper()

        def fail(why: str):
            raise DomainError(f"line {lineno}: {why}: {raw.strip()!r}")

        def qubit(tok: str) -> int:
            if (index := _qubit_index(tok)) is None:
                fail(f"expected a qubit like q0, got {tok!r}")
            return index

        if name not in GATES:
            fail(f"unknown gate {name!r}; valid: {', '.join(GATES)}")
        n_qubits, takes_angle = GATES[name]
        if len(args) != n_qubits + takes_angle:
            takes = "a qubit and an angle" if takes_angle else "one qubit" if n_qubits == 1 else "two qubits"
            fail(f"{name} takes {takes}")
        angle = None
        if takes_angle:
            try:
                angle = float(args[-1])
            except ValueError:
                fail(f"bad angle {args[-1]!r}")
            if not math.isfinite(angle):
                fail(f"angle must be finite, got {args[-1]!r}")
        qubits = tuple(qubit(tok) for tok in args[:n_qubits])
        if len(set(qubits)) != n_qubits:
            fail("two-qubit gate needs distinct qubits")
        out.append(LogicalGate(name, qubits, angle))
    return out


def _qubit_index(name) -> int | None:
    """``i`` of the qubit name ``q<i>``, ``i`` in ASCII digits; None for any other name."""
    digits = name[1:] if isinstance(name, str) and name[:1] == "q" else ""
    try:
        return int(digits) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() reads
        return None


class Register(Record):
    """Qubit sites at integer coordinates (spacing lambda_CO2/2) and the one
    header atom ``h0``, parked at an inter-site midpoint."""

    n_qubits: int
    header_position: float = 0.5
    site_spacing_m: float = CO2_WAVELENGTH_M / 2.0

    def _check(self):
        if self.n_qubits < 1:
            raise DomainError("register needs at least one qubit")
        if self.n_qubits > 2**53:  # so that every site coordinate is an exact float
            raise DomainError(f"register needs at most 2**53 qubits, got {self.n_qubits}")
        if not math.isfinite(self.header_position):
            raise DomainError(f"header position must be finite, got {self.header_position!r}")
        if self.site_spacing_m <= 0:
            raise DomainError(f"site spacing must be positive, got {self.site_spacing_m!r}")

    @property
    def n_headers(self) -> int:
        return 1


# --- timed primitives -------------------------------------------------------

class Move(Record):
    atom: str
    from_pos: float
    to_pos: float
    start_s: float
    duration_s: float
    tau_s: float
    p_exact: float
    kind: str = "move"


class SwapStep(Record):
    atoms: tuple[str, str]
    start_s: float
    duration_s: float
    kind: str = "swap"


class IsingPulse(Record):
    atoms: tuple[str, str]
    phase_rad: float      # realizes exp(+i phase sigma_z sigma_z)
    start_s: float
    duration_s: float
    kind: str = "ising"


class OneBit(Record):
    atom: str
    gate: str             # one of ONEBIT_GATES
    param: float | None
    start_s: float
    duration_s: float
    kind: str = "onebit"


Primitive = Move | SwapStep | IsingPulse | OneBit


class Schedule(Record):
    register: Register
    params: CompileParams
    circuit: tuple[LogicalGate, ...]
    primitives: tuple[Primitive, ...]
    total_time_s: float
    global_phase_rad: float
    # residual always-on coupling accumulated while the header is parked
    # during primitives that do not address it (reported, never simulated)
    idle_crosstalk_phase_rad: float = 0.0
    idle_infidelity_estimate: float = 0.0


def _duration_for_angle(c_ang: float, angle: float) -> float:
    """Smallest t > 0 with c*t = angle (mod 2 pi), for a nonzero signed rate c
    (rad/s) and an angle that is not a multiple of 2 pi."""
    angle = math.fmod(angle, 2.0 * math.pi)
    if angle < 0:
        angle += 2.0 * math.pi
    return angle / c_ang if c_ang > 0 else (angle - 2.0 * math.pi) / c_ang


class _Compiler:
    def __init__(self, register: Register, params: CompileParams):
        self.register = register
        self.params = params
        self.header = "h0"
        self.pos = register.header_position
        self.t = 0.0
        self.prims: list[Primitive] = []
        self.phase = 0.0
        self.idle_phase = 0.0
        # pulse areas: swap needs sigma.sigma area pi/4; the gate Ising pulse
        # realizes exp(+i pi/4 zz), i.e. -c t = pi/4
        self.swap_duration = _duration_for_angle(2.0 * math.pi * params.j_swap_hz, math.pi / 4.0)
        self.ising_duration = _duration_for_angle(2.0 * math.pi * params.j_gate_hz, -math.pi / 4.0)

    def _emit(self, cls, *head, duration_s: float, tail: tuple = ()):
        """Append ``cls(*head, start_s, duration_s, *tail)`` starting now, and
        advance the clock.  A primitive that does not address the header (its
        first field; every MOVE does) is charged the residual coupling toward
        the qubit nearest the parked header: the gate coupling scaled by 1/d^3,
        d floored at the quoted gate separation (a header "at" a site operates
        at gate range)."""
        self.prims.append(cls(*head, self.t, duration_s, *tail))
        self.t += duration_s
        if self.header not in (head[0] if isinstance(head[0], tuple) else head[:1]):
            nearest = abs(self.pos - min(max(round(self.pos), 0), self.register.n_qubits - 1))
            gate_sep = self.params.gate_separation_a0
            d_a0 = max(nearest * (self.register.site_spacing_m / BOHR_RADIUS), gate_sep)
            j_res = abs(self.params.j_gate_hz) * (gate_sep / d_a0) ** 3
            self.idle_phase += 2.0 * math.pi * j_res * duration_s

    def move_to(self, target: float):
        if target == self.pos:
            return
        plan = plan_transport(
            abs(target - self.pos) * self.register.site_spacing_m,
            2.0 * math.pi * self.params.trap_frequency_hz,
            self.params.mass_kg,
            self.params.p_budget,
            self.params.max_move_duration_s,
        )
        self._emit(Move, self.header, self.pos, target, duration_s=plan.transit_time_s, tail=(plan.tau_s, plan.p_exact))
        self.pos = target

    def onebit(self, atom: str, gate: str, param: float | None = None):
        self._emit(OneBit, atom, gate, param, duration_s=self.params.onebit_time_s)

    def swap_with(self, qubit: int):
        """State swap between the header and the qubit at its site."""
        q = f"q{qubit}"
        if self.params.swap_primitive == "heisenberg":
            self.pulse(SwapStep, (self.header, q))
            self.phase -= math.pi / 4.0  # e^{-i pi/4} of the one-pulse swap
        else:
            self.cnot_block(self.header, q)
            self.cnot_block(q, self.header)
            self.cnot_block(self.header, q)

    def pulse(self, cls, atoms: tuple[str, str]):
        """A swap, or the gate Ising pulse exp(+i pi/4 zz), between two atoms."""
        if cls is SwapStep:
            self._emit(SwapStep, atoms, duration_s=self.swap_duration)
        else:
            self._emit(IsingPulse, atoms, math.pi / 4.0, duration_s=self.ising_duration)

    def cnot_block(self, control: str, target: str):
        """CNOT from the Ising pulse with single-bit dressing.

        H_t . S_c . S_t . exp(+i pi/4 zz) . H_t = e^{+i pi/4} CNOT(c, t)
        """
        self.onebit(target, "H")
        self.pulse(IsingPulse, (control, target))
        self.onebit(control, "S")
        self.onebit(target, "S")
        self.onebit(target, "H")
        self.phase += math.pi / 4.0

    def phase_block(self, atom_a: str, atom_b: str):
        """The Ising phase gate: exp(+i pi/4 zz) exp(+i pi/4 z_a) exp(+i pi/4 z_b).

        exp(+i pi/4 z) = e^{+i pi/4} PHASE(-pi/2), so the emitted primitives
        sit e^{-i pi/4} below the ideal gate per single-spin factor.
        """
        self.pulse(IsingPulse, (atom_a, atom_b))
        self.onebit(atom_a, "PHASE", -math.pi / 2.0)
        self.onebit(atom_b, "PHASE", -math.pi / 2.0)
        self.phase -= math.pi / 2.0

    def two_qubit(self, gate: LogicalGate):
        qi, qj = gate.qubits
        self.move_to(float(qi))
        self.swap_with(qi)
        self.move_to(float(qj))
        if gate.name == "XOR":
            self.cnot_block(self.header, f"q{qj}")
        else:  # PHASE
            self.phase_block(self.header, f"q{qj}")
        self.move_to(float(qi))
        self.swap_with(qi)

    def single_qubit(self, gate: LogicalGate):
        name = "PHASE" if gate.name == "PHASE1" else gate.name
        qi = gate.qubits[0]
        if self.params.single_bit_mode == "direct":
            self.onebit(f"q{qi}", name, gate.param)
            return
        park = self.pos
        self.move_to(float(qi))
        self.swap_with(qi)
        self.onebit(self.header, name, gate.param)
        self.swap_with(qi)
        self.move_to(park)

    def run(self, circuit: list[LogicalGate]) -> Schedule:
        _check_in_register(circuit, self.register)
        for gate in circuit:
            if gate.name == "SWAP":
                a, b = gate.qubits
                for ctrl, tgt in ((a, b), (b, a), (a, b)):
                    self.two_qubit(LogicalGate("XOR", (ctrl, tgt)))
            elif gate.name in TWO_QUBIT_GATES:
                self.two_qubit(gate)
            else:
                self.single_qubit(gate)
        totals = {**self.clock(), "global_phase_rad": math.remainder(self.phase, 2.0 * math.pi)}
        for name, value in totals.items():
            if not math.isfinite(value):
                raise NumericalError(f"compiled {name} is not a finite float ({self.params})")
        return Schedule(self.register, self.params, tuple(circuit), tuple(self.prims), **totals)

    def clock(self) -> dict:
        """The schedule's time and idle charge so far, as its totals."""
        return {"total_time_s": self.t, "idle_crosstalk_phase_rad": self.idle_phase,
                "idle_infidelity_estimate": 0.5 * (self.idle_phase * self.idle_phase)}


def _check_in_register(circuit, register: Register):
    """Every qubit a gate of ``circuit`` addresses is a site of ``register``."""
    for gate in circuit:
        for q in gate.qubits:
            if not (0 <= q < register.n_qubits):
                raise DomainError(f"gate {gate.text()} addresses an unreachable site q{q}")


def compile_circuit(
    circuit: list[LogicalGate],
    register: Register,
    params: CompileParams | None = None,
) -> Schedule:
    """Expand a logical circuit into the timed physical primitive sequence."""
    return _Compiler(register, params or CompileParams()).run(circuit)


# --- simulation -------------------------------------------------------------

def _atom_site(atom: str, register: Register) -> int:
    """Tensor site of an atom: qubit q<i> is site i, the header h0 comes last."""
    if atom == "h0":
        return register.n_qubits
    if (index := _qubit_index(atom)) is not None and index < register.n_qubits:
        return index
    raise DomainError(f"unknown atom {atom!r}")


def _product(steps, n_sites: int) -> np.ndarray:
    """The unitary of ``(matrix, sites)`` steps applied in order."""
    import numpy as np

    from . import operators as ops

    u = np.eye(2**n_sites, dtype=complex)
    for matrix, sites in steps:
        u = ops.apply(matrix, sites, u)
    return u


def simulate_schedule(schedule: Schedule) -> np.ndarray:
    """Compose the ideal primitive unitaries on the q-register + header.

    The schedule comes from ``compile_circuit`` or ``schedule_from_json``,
    which replays it through the compiler; only the qubit cap is checked
    here.  Each primitive's matrix comes from ``gates``; numpy only builds
    their dense 2^(n+1) product.  Transport acts trivially on spin (spin and
    motion factorize), so MOVE primitives contribute identity; the returned matrix
    includes every primitive's intrinsic phase and therefore matches the
    logical unitary times exp(i * global_phase_rad) exactly.
    """
    from . import gates as gatelib

    reg = schedule.register
    if reg.n_qubits > SIMULATION_QUBIT_CAP:
        raise DomainError(f"simulation caps at {SIMULATION_QUBIT_CAP} qubits, got {reg.n_qubits}")
    steps = []
    for prim in schedule.primitives:
        if isinstance(prim, SwapStep):
            steps.append((gatelib.ONE_PULSE_SWAP, prim.atoms))
        elif isinstance(prim, IsingPulse):
            steps.append((gatelib.ising_pulse(prim.phase_rad), prim.atoms))
        elif isinstance(prim, OneBit):
            matrix = gatelib.phase(prim.param) if prim.gate == "PHASE" else gatelib.ONEBIT[prim.gate]
            steps.append((matrix, (prim.atom,)))
    return _product([(m, [_atom_site(a, reg) for a in atoms]) for m, atoms in steps], reg.n_qubits + 1)


def logical_unitary(circuit: list[LogicalGate], n_qubits: int) -> np.ndarray:
    """The ideal circuit unitary on the bare qubit register, from the
    logical gate matrices of ``gates``."""
    from . import gates as gatelib

    return _product(((gatelib.logical_matrix(g.name, g.param), list(g.qubits)) for g in circuit), n_qubits)


def verify_schedule(schedule: Schedule) -> dict:
    """Simulate and compare against logical x identity-on-header.

    The fidelity is global-phase-invariant; ``max_norm_error`` additionally
    discharges the phase ledger, so it checks the compiled unitary exactly.
    """
    import numpy as np

    achieved = simulate_schedule(schedule)
    expected = np.kron(logical_unitary(schedule.circuit, schedule.register.n_qubits), np.eye(2, dtype=complex))
    err = float(np.max(np.abs(achieved - np.exp(1j * schedule.global_phase_rad) * expected)))
    return {
        # numpy's pairwise sum, not np.vdot: a threaded BLAS sums in an order set by its thread count
        "fidelity": float(abs((achieved.conj() * expected).sum()) / len(expected)),
        "global_phase_rad": schedule.global_phase_rad,
        "max_norm_error": err,
        "total_time_s": schedule.total_time_s,
        "idle_infidelity_estimate": schedule.idle_infidelity_estimate,
        "matches": err < 1e-9,
    }


# --- decoherence budget -----------------------------------------------------

class BudgetReport(Record):
    gate_time_s: float
    transport_time_s: float
    coherence_time_s: float       # inf when every rate is zero
    ratio: float                  # (gate + transport) / coherence
    flagged: bool

    def as_dict(self) -> dict:
        return {
            "gate_time_s": self.gate_time_s,
            "transport_time_s": self.transport_time_s,
            "coherence_time_s": None if math.isinf(self.coherence_time_s) else self.coherence_time_s,
            "ratio": self.ratio,
            "flagged": self.flagged,
        }


def budget(schedule: Schedule, rates_hz: dict[str, float]) -> BudgetReport:
    """Time accounting against the worst decoherence rate.

    ``rates_hz`` maps source names (e.g. blue-lattice scattering, CO2
    scattering) to rates; the coherence time is the inverse of the largest.
    """
    if any(r < 0 for r in rates_hz.values()):
        raise DomainError("decoherence rates must be >= 0")
    worst = max(rates_hz.values(), default=0.0)
    coherence = math.inf if worst == 0.0 else 1.0 / worst
    # left to right, as on every Python: sum() compensates since 3.12
    transport = reduce(add, (p.duration_s for p in schedule.primitives if isinstance(p, Move)), 0.0)
    gate = schedule.total_time_s - transport
    ratio = 0.0 if math.isinf(coherence) else schedule.total_time_s / coherence
    return BudgetReport(gate, transport, coherence, ratio, ratio > BUDGET_FLAG_RATIO)


# --- serialization ----------------------------------------------------------

SCHEDULE_FORMAT = "spinbus-schedule/2"


def schedule_doc(schedule: Schedule) -> dict:
    """The JSON document of ``schedule``, which ``schedule_from_json`` reads."""
    return {**schedule.as_dict(), "format": SCHEDULE_FORMAT, "register": schedule.register.as_dict(),
            "params": schedule.params.as_dict(), "circuit": [g.text() for g in schedule.circuit],
            "primitives": [p.as_dict() for p in schedule.primitives]}


def schedule_to_json(schedule: Schedule) -> str:
    return dumps(schedule_doc(schedule))


_PRIMITIVE_TYPES = {"move": Move, "swap": SwapStep, "ising": IsingPulse, "onebit": OneBit}


def _primitive_from_json(body, index: int, compiler: _Compiler):
    """Check the JSON primitive ``body``'s fields and names, then re-emit it through
    ``compiler`` where its header and clock stand, refusing a field that differs."""
    what = f"primitive {index}"
    kind = body.get("kind") if isinstance(body, dict) else None
    cls = _PRIMITIVE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"{what}: unknown kind {kind!r}; valid: {', '.join(_PRIMITIVE_TYPES)}")
    body = checked_fields(cls.__annotations__, body, what, cls.__annotations__)
    if "atoms" in body:
        body["atoms"] = tuple(body["atoms"])
    for atom in body.get("atoms", (body.get("atom"),)):
        try:
            _atom_site(atom, compiler.register)
        except DomainError as exc:
            raise DomainError(f"{what}: {exc}") from None
    pos = compiler.pos
    if cls is Move:
        _same(body["from_pos"], pos, what, "from_pos")  # before planning: a move from elsewhere is not run
        if body["to_pos"] == pos:
            raise DomainError(f"{what}: to_pos {float(pos)!r} is the header's position; a MOVE must move it")
        try:
            compiler.move_to(body["to_pos"])
        except SpinBusError as exc:  # a move the compiler cannot plan is not one it wrote
            raise DomainError(f"{what}: {exc}") from None
    elif cls is OneBit:
        if body["gate"] not in ONEBIT_GATES:
            raise DomainError(f"{what}: unknown one-bit gate {body['gate']!r}; valid: {', '.join(ONEBIT_GATES)}")
        if (body["gate"] == "PHASE") != (body["param"] is not None):
            takes = "a number" if body["gate"] == "PHASE" else "no"
            raise DomainError(f"{what}: gate {body['gate']} takes {takes} param, got {json.dumps(body['param'])}")
        compiler.onebit(body["atom"], body["gate"], body["param"])
    else:
        if not (0 <= pos < compiler.register.n_qubits and pos % 1 == 0):
            raise DomainError(f"{what}: atoms need a qubit at the header's position {float(pos)!r}")
        atoms, pair = body["atoms"], (compiler.header, f"q{int(pos)}")  # zz is symmetric: either order
        _same(atoms, atoms if cls is IsingPulse and atoms == pair[::-1] else pair, what, "atoms")
        compiler.pulse(cls, atoms)
    for name, value in compiler.prims[-1].as_dict().items():
        _same(body[name], value, what, name)


def _same(value, compiled, *field: str):
    """Refuse a file's ``value`` of ``field`` (its parts joined by ": ") other than the ``compiled`` one."""
    if value != compiled:  # a number shows as a float: a JSON integer may have 300 digits
        value, compiled = (json.dumps(float(v) if type(v) is int else v) for v in (value, compiled))
        raise DomainError(f"{': '.join(field)} {value} is not the compiled {compiled}")


def _gate_from_json(entry: str, index: int) -> LogicalGate:
    """The one gate of ``circuit[index]``, an entry the compiler writes as ``LogicalGate.text()``."""
    try:
        gates = parse_circuit(entry)
    except DomainError as exc:
        raise DomainError(f"circuit[{index}]: {exc}") from None
    if len(gates) != 1:
        raise DomainError(f"circuit[{index}] must hold exactly one gate, got {json.dumps(entry)}")
    return gates[0]


def schedule_from_json(text: str) -> Schedule:
    """Read a ``schedule_to_json`` document; the ``budget`` block that
    ``compile`` adds is ignored.  This is the one check of a schedule's
    content, which the simulator then trusts: malformed input raises
    DomainError.  Each primitive is re-emitted through a ``_Compiler`` on the file's
    register and params, and must be, as must the totals, what the compiler writes."""
    try:
        doc = loads_finite(text)
    except ValueError as exc:
        raise DomainError(f"schedule is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError("schedule must be a JSON object")
    if doc.get("format") != SCHEDULE_FORMAT:
        raise DomainError(f"unsupported schedule format {doc.get('format')!r}")
    body = {k: v for k, v in doc.items() if k not in ("format", "budget")}
    body = checked_fields(Schedule.__annotations__, body, "schedule", Schedule.__annotations__)
    register, params = (cls(**checked_fields(cls.__annotations__, body[key], key, cls.__annotations__))
                        for key, cls in (("register", Register), ("params", CompileParams)))
    compiler = _Compiler(register, params)
    for i, p in enumerate(body["primitives"]):
        _primitive_from_json(p, i, compiler)
    clock = compiler.clock()
    for name, value in clock.items():
        _same(body[name], value, name)
    # the compiler writes math.remainder(phase, 2 pi), which it leaves unchanged, +-pi included
    if math.remainder(body["global_phase_rad"], 2.0 * math.pi) != body["global_phase_rad"]:
        raise DomainError(f"global_phase_rad {float(body['global_phase_rad'])!r} is not reduced into [-pi, pi]")
    circuit = tuple(_gate_from_json(entry, i) for i, entry in enumerate(body["circuit"]))
    _check_in_register(circuit, register)
    body.update(clock, register=register, params=params, circuit=circuit, primitives=tuple(compiler.prims))
    return Schedule(**body)
