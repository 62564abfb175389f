import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbus import gates, operators as ops, scheduler as sch
from spinbus.errors import DomainError, NumericalError

REG2 = sch.Register(n_qubits=2)
REG3 = sch.Register(n_qubits=3)


def kinds(schedule):
    return [p.kind for p in schedule.primitives]


# --- parsing ----------------------------------------------------------------

def test_parse_basic_circuit():
    circuit = sch.parse_circuit("# header\nXOR q0 q1\n\nH q2  # trailing comment\nPHASE q0 q1\nPHASE1 q2 0.5\n")
    assert [g.name for g in circuit] == ["XOR", "H", "PHASE", "PHASE1"]
    assert circuit[0].qubits == (0, 1)
    assert circuit[3].param == 0.5


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("FROB q0", "line 1"),
        ("XOR q0", "two qubits"),
        ("XOR q0 q0", "distinct"),
        ("H qx", "qubit"),
        ("PHASE1 q0 banana", "angle"),
        ("PHASE1 q0 nan", "finite"),
        ("PHASE1 q0 -inf", "finite"),
        ("X q0 q1", "one qubit"),
    ],
)
def test_parse_errors_name_the_line(line, fragment):
    with pytest.raises(DomainError, match="^line 1: ") as err:
        sch.parse_circuit(line)
    assert fragment in str(err.value)


def test_parse_error_line_number():
    with pytest.raises(DomainError, match=re.escape("line 3: unknown gate 'BAD'; valid: ") + ".*: 'BAD q0'$"):
        sch.parse_circuit("X q0\nH q1\nBAD q0\n")


@st.composite
def _logical_gates(draw):
    n = draw(st.integers(1, 8))
    qubit = st.integers(0, n - 1)
    angle = st.floats(allow_nan=False, allow_infinity=False)
    gate = st.one_of(
        st.builds(sch.LogicalGate, st.sampled_from(["X", "Z", "H"]), st.tuples(qubit)),
        st.builds(sch.LogicalGate, st.just("PHASE1"), st.tuples(qubit), angle),
    )
    if n > 1:
        pair = st.permutations(range(n)).map(lambda p: (p[0], p[1]))
        gate = gate | st.builds(sch.LogicalGate, st.sampled_from(sch.TWO_QUBIT_GATES), pair)
    return draw(st.lists(gate, max_size=12))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_logical_gates())
def test_circuit_text_round_trip(gates):
    parsed = sch.parse_circuit("\n".join(g.text() for g in gates))
    assert parsed == gates
    assert sch.parse_circuit("\n".join(g.text() for g in parsed)) == parsed


# --- compilation shape ------------------------------------------------------

def test_empty_circuit_empty_schedule():
    s = sch.compile_circuit([], REG2)
    assert s.primitives == ()
    assert s.total_time_s == 0.0
    assert s.global_phase_rad == 0.0


def test_xor_three_step_shape():
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    k = kinds(s)
    assert k.count("move") == 3
    assert k.count("swap") == 2
    assert k.count("ising") == 1
    # moves: park -> q0, q0 -> q1, q1 -> q0
    moves = [p for p in s.primitives if p.kind == "move"]
    assert [(m.from_pos, m.to_pos) for m in moves] == [(0.5, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_mediated_single_bit_shape():
    params = sch.CompileParams(single_bit_mode="mediated")
    s = sch.compile_circuit(sch.parse_circuit("Z q0"), REG2, params)
    assert kinds(s) == ["move", "swap", "onebit", "swap", "move"]
    assert sch.verify_schedule(s)["matches"]


def test_direct_single_bit_shape():
    s = sch.compile_circuit(sch.parse_circuit("Z q0"), REG2)
    assert kinds(s) == ["onebit"]
    assert s.total_time_s == s.params.onebit_time_s


def test_swap_is_three_xor_blocks():
    s = sch.compile_circuit(sch.parse_circuit("SWAP q0 q1"), REG2)
    assert kinds(s).count("ising") == 3
    assert sch.verify_schedule(s)["matches"]


def test_unreachable_site_rejected():
    with pytest.raises(DomainError):
        sch.compile_circuit(sch.parse_circuit("X q5"), REG2)


def test_zero_coupling_rejected():
    for name in ("j_gate_hz", "j_swap_hz"):
        with pytest.raises(DomainError, match=f"^{name} must be nonzero, got 0.0$"):
            sch.CompileParams(**{name: 0.0})


@pytest.mark.parametrize("name, pulse", [("j_swap_hz", "swap"), ("j_gate_hz", "Ising")])
@pytest.mark.parametrize("coupling, duration", [(1e308, "0.0"), (-1e308, "0.0"), (1e-310, "inf"), (-5e-324, "inf")])
def test_a_coupling_that_times_its_pulse_at_0_or_inf_seconds_is_refused(name, pulse, coupling, duration):
    # 2 pi J overflows to inf, or the pulse area over 2 pi J does; "H q0" in direct mode uses neither pulse
    params = sch.CompileParams(**{name: coupling})
    with pytest.raises(NumericalError, match=f"^the {pulse} pulse takes {duration} s, not a finite time > 0 "):
        sch.compile_circuit(sch.parse_circuit("H q0"), REG2, params)


def test_pulse_durations_match_couplings():
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    ising = [p for p in s.primitives if p.kind == "ising"][0]
    # negative coupling realizes exp(+i pi/4 zz) in (pi/4)/(2 pi |J|)
    assert ising.duration_s == pytest.approx(1.0 / (8 * abs(s.params.j_gate_hz)), rel=1e-12)
    swap = [p for p in s.primitives if p.kind == "swap"][0]
    assert swap.duration_s == pytest.approx(1.0 / (8 * s.params.j_swap_hz), rel=1e-12)


def test_positive_gate_coupling_wraps_phase():
    s = sch.compile_circuit(
        sch.parse_circuit("XOR q0 q1"), REG2, sch.CompileParams(j_gate_hz=882.5)
    )
    ising = [p for p in s.primitives if p.kind == "ising"][0]
    assert ising.duration_s == pytest.approx(7.0 / (8 * 882.5), rel=1e-12)
    assert sch.verify_schedule(s)["matches"]


# --- simulation and verification --------------------------------------------

def test_xor_compiles_to_cnot_with_exact_ledger_phase():
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    v = sch.verify_schedule(s)
    assert v["fidelity"] >= 1 - 1e-12
    assert v["max_norm_error"] < 1e-12
    assert s.global_phase_rad == pytest.approx(-math.pi / 4, abs=1e-12)


def test_header_spin_disentangles_for_any_header_state():
    # operator-level identity: no header initialization is assumed
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    u = sch.simulate_schedule(s)
    expected = np.kron(gates.CNOT, np.eye(2, dtype=complex))
    assert ops.operator_distance(u, expected) < 1e-12


def test_swapstep_involution():
    params = sch.CompileParams()
    s = sch.compile_circuit([], REG2)
    swap_u = np.asarray(gates.heisenberg_swap(math.pi / 4))
    assert ops.fidelity(swap_u @ swap_u, np.eye(4, dtype=complex)) == pytest.approx(1.0, abs=1e-12)


def test_xors_swap_primitive_mode():
    params = sch.CompileParams(swap_primitive="xors")
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2, params)
    assert "swap" not in kinds(s)
    assert sch.verify_schedule(s)["matches"]


ALL_GATES_2Q = ["X q0", "X q1", "H q0", "H q1", "Z q0", "Z q1", "XOR q0 q1", "XOR q1 q0", "SWAP q0 q1"]


def test_random_two_gate_circuits_sound_on_three_qubits():
    rng = np.random.default_rng(17)
    pool = ["X q0", "H q2", "Z q1", "PHASE1 q0 0.7", "XOR q0 q2", "XOR q2 q1", "SWAP q1 q2", "PHASE q0 q1"]
    for _ in range(12):
        lines = "\n".join(rng.choice(pool, size=2))
        s = sch.compile_circuit(sch.parse_circuit(lines), REG3)
        v = sch.verify_schedule(s)
        assert v["fidelity"] >= 1 - 1e-9, lines
        assert v["matches"], lines


def test_schedule_wellformed_non_overlapping_and_continuous():
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1\nSWAP q1 q0\nH q0"), REG2)
    t = 0.0
    for p in s.primitives:
        assert p.start_s == pytest.approx(t, abs=1e-15)
        t += p.duration_s
    assert s.total_time_s == pytest.approx(t, rel=1e-12)
    moves = [p for p in s.primitives if p.kind == "move"]
    pos = REG2.header_position
    for m in moves:
        assert m.from_pos == pos
        pos = m.to_pos


def test_schedule_json_rejects_bad_format():
    with pytest.raises(DomainError):
        sch.schedule_from_json('{"format": "other/9"}')
    with pytest.raises(DomainError):
        sch.schedule_from_json("not json")


def test_schedule_json_loads_only_a_global_phase_the_compiler_can_write():
    doc = json.loads(sch.schedule_to_json(sch.compile_circuit(sch.parse_circuit("XOR q0 q1\nH q0"), REG2)))
    compiled = doc["global_phase_rad"]
    assert compiled != 0.0
    for phase in (compiled + 4 * math.pi, 3.5, -3.2):
        with pytest.raises(DomainError, match=re.escape(f"global_phase_rad {phase!r} is not reduced into [-pi, pi]")):
            sch.schedule_from_json(json.dumps({**doc, "global_phase_rad": phase}))
    for phase in (math.pi, -math.pi, compiled):
        assert sch.schedule_from_json(json.dumps({**doc, "global_phase_rad": phase})).global_phase_rad == phase


def test_simulation_cap():
    n = sch.SIMULATION_QUBIT_CAP + 1
    s = sch.compile_circuit(sch.parse_circuit(f"X q{n - 1}"), sch.Register(n_qubits=n))
    with pytest.raises(DomainError):
        sch.simulate_schedule(s)


def test_random_circuit_at_the_qubit_cap_verifies_exactly():
    n = sch.SIMULATION_QUBIT_CAP
    rng = np.random.default_rng(8)
    lines = []
    for _ in range(16):
        if rng.random() < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"{rng.choice(sch.TWO_QUBIT_GATES)} q{a} q{b}")
        else:
            lines.append(f"PHASE1 q{rng.integers(n)} {rng.uniform(-math.pi, math.pi)!r}")
            lines.append(f"{rng.choice(['X', 'Z', 'H'])} q{rng.integers(n)}")
    s = sch.compile_circuit(sch.parse_circuit("\n".join(lines)), sch.Register(n_qubits=n))
    v = sch.verify_schedule(s)
    assert v["matches"] and v["max_norm_error"] < 1e-12
    assert v["fidelity"] >= 1 - 1e-12


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, sch.SIMULATION_QUBIT_CAP))
    qubit = st.integers(0, n - 1).map(lambda q: f"q{q}")
    gate = st.one_of(
        st.tuples(st.sampled_from(["X", "Z", "H"]), qubit).map(" ".join),
        st.tuples(qubit, st.floats(-10, 10)).map(lambda t: f"PHASE1 {t[0]} {t[1]!r}"),
    )
    if n > 1:
        pair = st.permutations(range(n)).map(lambda p: f"q{p[0]} q{p[1]}")
        gate = gate | st.tuples(st.sampled_from(sch.TWO_QUBIT_GATES), pair).map(" ".join)
    params = sch.CompileParams(
        swap_primitive=draw(st.sampled_from(["heisenberg", "xors"])),
        single_bit_mode=draw(st.sampled_from(["direct", "mediated"])),
    )
    return n, draw(st.lists(gate, max_size=6)), params


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_circuits(), st.just(0.5) | st.integers(-1, 9).map(float) | st.floats(-2.0, 10.0))
def test_compile_json_load_round_trip_is_equal(case, header_position):
    # the header parks anywhere: between sites, at a site, or off the register's ends
    n, lines, params = case
    register = sch.Register(n_qubits=n, header_position=header_position)
    s = sch.compile_circuit(sch.parse_circuit("\n".join(lines)), register, params)
    assert sch.schedule_from_json(sch.schedule_to_json(s)) == s


# --- budget -----------------------------------------------------------------

def test_budget_arithmetic_rb_header():
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    b = sch.budget(s, {"gamma_eff_blue": 0.6})
    assert b.coherence_time_s == pytest.approx(1 / 0.6, rel=1e-12)
    assert b.ratio == pytest.approx(s.total_time_s * 0.6, rel=1e-12)
    assert b.ratio < 1e-3  # sub-ms schedule vs seconds of coherence
    assert not b.flagged
    assert b.gate_time_s + b.transport_time_s == pytest.approx(s.total_time_s, rel=1e-12)
    assert set(b.as_dict()) == {"gate_time_s", "transport_time_s", "coherence_time_s", "ratio", "flagged"}


def test_budget_empty_schedule_and_zero_rates():
    s = sch.compile_circuit([], REG2)
    b = sch.budget(s, {"gamma_eff_blue": 0.6})
    assert b.ratio == 0.0
    b0 = sch.budget(s, {})
    assert math.isinf(b0.coherence_time_s) and b0.ratio == 0.0
    assert b0.as_dict()["coherence_time_s"] is None


def test_budget_transport_time_is_a_float_without_a_move():
    # a lone one-bit gate compiles to no MOVE; the JSON must read 0.0, not 0
    s = sch.compile_circuit(sch.parse_circuit("X q0"), REG2)
    assert not any(p.kind == "move" for p in s.primitives)
    b = sch.budget(s, {"gamma_eff_blue": 0.6})
    assert type(b.transport_time_s) is float and b.transport_time_s == 0.0
    assert b.gate_time_s == s.total_time_s


def test_budget_sums_transport_left_to_right_on_every_python():
    # 1.0 + 2**-53 rounds to 1.0 twice; a compensated sum (sum() since Python 3.12) reads 1.0000000000000002
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    durations = iter([1.0, 2.0**-53, 2.0**-53])
    primitives = tuple(p.replace(duration_s=next(durations)) if p.kind == "move" else p for p in s.primitives)
    assert next(durations, None) is None  # the gate has exactly three MOVEs
    assert sch.budget(s.replace(primitives=primitives), {}).transport_time_s == 1.0


def test_budget_worst_rate_wins():
    s = sch.compile_circuit(sch.parse_circuit("H q0"), REG2)
    b = sch.budget(s, {"a": 0.1, "b": 2.0})
    assert b.coherence_time_s == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError):
        sch.budget(s, {"a": -1.0})


def test_primitives_do_not_depend_on_the_register_size():
    circuit = sch.parse_circuit("XOR q0 q1")
    small = sch.compile_circuit(circuit, REG2)
    large = sch.compile_circuit(circuit, sch.Register(n_qubits=10**6))
    assert large.primitives == small.primitives


@pytest.mark.parametrize("position", [math.nan, math.inf, -math.inf])
def test_register_refuses_a_non_finite_header_position(position):
    with pytest.raises(DomainError, match="header position must be finite"):
        sch.Register(n_qubits=2, header_position=position)


def test_thousands_of_gates_fit_in_coherence_window():
    # a kHz-scale coupling gives ~ms gates; gamma_eff ~ 0.6 Hz allows ~1.7 s
    s = sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)
    b = sch.budget(s, {"gamma_eff_blue": 0.6})
    assert 1.0 / b.ratio > 1000


@pytest.mark.parametrize("token", ["q²", "q٣", "q" + "9" * 5000], ids=["superscript", "arabic-indic", "5000-digits"])
def test_a_qubit_is_q_then_ascii_digits(token):
    with pytest.raises(DomainError, match=re.escape(f"line 1: expected a qubit like q0, got {token!r}")):
        sch.parse_circuit(f"X {token}")
    assert sch.parse_circuit("X q007")[0].qubits == (7,)  # leading zeros are ASCII digits


@pytest.mark.parametrize("atom", ["q²", "q١", "q" + "9" * 5000], ids=["superscript", "arabic-indic", "5000-digits"])
def test_schedule_json_atom_is_a_qubit_by_the_circuit_rule(atom):
    doc = json.loads(sch.schedule_to_json(sch.compile_circuit(sch.parse_circuit("XOR q0 q1"), REG2)))
    i, onebit = next((i, p) for i, p in enumerate(doc["primitives"]) if p["kind"] == "onebit" and p["atom"] == "q1")
    onebit["atom"] = atom  # the Arabic-Indic digit one was read as q1
    with pytest.raises(DomainError, match=re.escape(f'primitive {i}: atom {json.dumps(atom)} is not the compiled "q1"')):
        sch.schedule_from_json(json.dumps(doc))


def test_register_holds_at_most_2_53_qubits():
    assert sch.Register(n_qubits=2**53).n_qubits == 2**53
    with pytest.raises(DomainError, match=re.escape(f"register needs at most 2**53 qubits, got {2**53 + 1}")):
        sch.Register(n_qubits=2**53 + 1)
