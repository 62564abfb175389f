import csv
import errno
import functools
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spinbus
from spinbus import cli
from spinbus.cli import main
from spinbus.traps import CO2_WAVELENGTH_M
from conftest import child_env
from test_golden import regen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# argparse's invalid-choice line quotes the choices on some Pythons only (3.11: 'red', 'blue'; 3.13: red, blue),
# so these stay out of the golden corpus, whose other usage lines it holds to the byte
USAGE_ERRORS = {
    "unknown-command": ["frobnicate"],
    "bad-choice": ["tables", "--lattice", "green"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_exit_1_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_every_error_is_a_domain_or_a_numerical_error():
    """One class per exit code: DomainError exits 1, NumericalError 2."""
    from spinbus import errors

    defined = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, spinbus.SpinBusError)}
    assert defined == {spinbus.SpinBusError, spinbus.DomainError, spinbus.NumericalError}
    assert sorted(spinbus.__all__) == sorted(["SpinBusError", "DomainError", "NumericalError", "__version__"])


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: spinbus "),
    (["scan", "--help"], "usage: spinbus scan "),
], ids=["global", "scan"])
def test_help_exit_0_with_usage_on_stdout(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith(usage)
    assert err == ""


def test_tables_red_rb_matches_reference(capsys):
    code, out, _ = run(capsys, "tables", "--lattice", "red", "--species", "Rb")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row["V_max_MHz"]) == pytest.approx(364, rel=0.03)
    assert float(row["nu_osc_kHz"]) == pytest.approx(172, rel=0.03)
    assert float(row["a_osc_a0"]) == pytest.approx(347, rel=0.03)


def test_tables_blue_has_all_species(capsys):
    code, out, _ = run(capsys, "tables", "--lattice", "blue")
    assert code == 0
    rows = parse_csv(out)
    assert [r["species"] for r in rows] == ["Li", "Na", "K", "Rb", "Cs"]
    assert float(rows[3]["gamma_eff_Hz"]) == pytest.approx(0.6, rel=0.1)


def test_tables_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "tables", "--lattice", "red", "--format", "json")
    assert code == 0
    doc = json.loads(out1)
    assert set(doc) == {"Li", "Na", "K", "Rb", "Cs"}
    _, out2, _ = run(capsys, "tables", "--lattice", "red", "--format", "json")
    assert out1 == out2


def test_scan_two_points(capsys):
    code, out, _ = run(capsys, "scan", "--z0-min", "800", "--z0-max", "1200", "--points", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert list(rows[0]) == [
        "z0_a0", "J_exchange_Hz", "J_dipolar_Hz", "J_total_Hz", "method", "stderr_Hz", "J_pointdipole_Hz",
    ]
    # dipolar approaches the point-dipole reference as z0 grows
    r = rows[1]
    assert float(r["J_dipolar_Hz"]) / float(r["J_pointdipole_Hz"]) > 0.5


def test_scan_points_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 3)
    code, out, _ = run(capsys, "scan", "--z0-min", "800", "--z0-max", "1200", "--points", "3")
    assert code == 0 and len(parse_csv(out)) == 3
    assert run(capsys, "scan", "--z0-min", "800", "--z0-max", "1200", "--points", "4") == (
        1, "", "error: need points <= 3, got 4\n")


# the quadrature scan's refusals of these widths are golden cases; the Monte Carlo scan samples with numpy first
@pytest.mark.parametrize("geometry, stage, widths", [
    # the contact density is finite here (a_r^2 a_z is 1.7e205 a0^3); the dipolar part's a_z^2 overflows
    ({"a_qz_a0": 1e200}, "Monte Carlo oracle", "a_r=412.31056256176606 a0, a_z=1e+200 a0"),
    ({"a_qr_a0": 1e-200, "a_hr_a0": 1e-200}, "contact density",
     "a_r=1.414213562373095e-200 a0, a_z=412.31056256176606 a0"),
    ({"a_qr_a0": 1e-150, "a_hr_a0": 1e-150}, "contact density",
     "a_r=1.414213562373095e-150 a0, a_z=412.31056256176606 a0"),
], ids=["square-overflows", "square-underflows", "coupling-overflows"])
def test_scan_mc_trap_widths_out_of_float_range_exit_2(capsys, tmp_path, geometry, stage, widths):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": geometry}))
    assert run(capsys, "--config", str(cfg), "scan", "--z0-min", "200", "--z0-max", "2500", "--points", "2",
               "--mode", "mc", "--samples", "10000") == (
        2, "", f"numerical failure: {stage} cannot evaluate trap widths {widths}\n")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(z0_min=_FINITE, z0_max=_FINITE, points=st.integers(2, 5))
def test_scan_any_finite_range_writes_finite_numbers_or_one_error_line(capsys, z0_min, z0_max, points):
    code, out, err = run(capsys, "scan", "--z0-min", repr(z0_min), "--z0-max", repr(z0_max),
                         "--points", str(points))
    if code == 0:
        rows = parse_csv(out)
        assert len(rows) == points
        for row in rows:
            for key, value in row.items():
                if key not in ("method", "stderr_Hz"):
                    assert math.isfinite(float(value)), (key, value)
    else:
        assert code in (1, 2)
        assert out == ""
        assert err.startswith("error: " if code == 1 else "numerical failure: ")
        assert err.count("\n") == 1


def test_scan_mc_byte_deterministic(capsys):
    args = ["scan", "--z0-min", "700", "--z0-max", "900", "--points", "2",
            "--mode", "mc", "--samples", "50000", "--seed", "3"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2 and "monte_carlo" in out1


def test_scan_mc_defaults_are_seed_20260810_and_1e6_samples(capsys):
    args = ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc"]
    default = run(capsys, *args)
    assert default == run(capsys, *args, "--seed", "20260810", "--samples", "1000000")
    assert default[0] == 0 and "monte_carlo" in default[1]


def test_scan_mc_agrees_with_quadrature(capsys):
    args = ["scan", "--z0-min", "600", "--z0-max", "900", "--points", "2"]
    code, out_q, _ = run(capsys, *args)
    code2, out_m, _ = run(capsys, *args, "--mode", "mc", "--samples", "200000", "--seed", "11")
    assert code == 0 and code2 == 0
    for rq, rm in zip(parse_csv(out_q), parse_csv(out_m)):
        assert abs(float(rm["J_dipolar_Hz"]) - float(rq["J_dipolar_Hz"])) <= 3 * float(rm["stderr_Hz"])


@pytest.mark.parametrize("flags, flag", [
    (["--samples", "5", "--seed", "-4"], "--samples"),
    (["--seed", "7"], "--seed"),
    (["--mode", "quadrature", "--samples", "10000"], "--samples"),
], ids=["both-invalid", "seed", "explicit-quadrature-samples"])
def test_scan_mc_flags_outside_mc_mode_exit_1(capsys, tmp_path, monkeypatch, flags, flag):
    from spinbus import interactions

    def computed(*args, **kwargs):
        raise AssertionError("scan computed a coupling")

    monkeypatch.setattr(interactions, "scan_couplings", computed)
    out_path = tmp_path / "scan.csv"
    code, out, err = run(capsys, "scan", "--z0-min", "200", "--z0-max", "300", "--points", "2", *flags,
                         "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} applies to --mode mc only\n"
    assert not out_path.exists()


def test_gatecheck_passes_and_reports(capsys, tmp_path):
    out_path = tmp_path / "gates.json"
    code, _, _ = run(capsys, "gatecheck", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True
    assert {r["gate"] for r in doc["identities"]} >= {
        "heisenberg_swap", "ising_phase_gate", "xor_gate", "swap_from_xors",
    }
    for r in doc["identities"]:
        assert r["fidelity"] >= 1 - 1e-9
    fids = [r["fidelity"] for r in doc["rwa_scan"]]
    assert fids[0] >= 0.999
    for r in doc["rwa_scan"]:
        assert set(r) == {"omega_s_over_scale", "fidelity", "step_doubling_distance"}
        assert 0.0 < r["step_doubling_distance"] <= 1e-4
    assert all(b <= a + 1e-3 for a, b in zip(fids, fids[1:]))


@pytest.mark.parametrize("flag, value, why", [
    ("--tolerance", "nan", "invalid finite float value"),
    ("--rwa-threshold", "inf", "invalid finite float value"),
    ("--rwa-threshold", "nan", "invalid finite float value"),
    ("--rwa-threshold", "-inf", "invalid finite float value"),
    ("--tolerance", "1.5", "fidelity threshold outside [0, 1]"),
    ("--tolerance", "-1", "fidelity threshold outside [0, 1]"),
    ("--rwa-threshold", "-0.1", "fidelity threshold outside [0, 1]"),
])
def test_gatecheck_threshold_non_finite_or_outside_0_1_exit_1(capsys, monkeypatch, flag, value, why):
    # NaN or an infinity would reach the JSON; a threshold above 1 fails every
    # run as a numerical failure and one below 0 passes every row
    from spinbus import gates

    monkeypatch.setattr(gates, "rwa_scan", lambda: pytest.fail("the check ran"))
    assert run(capsys, "gatecheck", flag, value) == (1, "", f"error: argument {flag}: {why}: '{value}'\n")


def test_transport_command_meets_budget(capsys):
    code, out, _ = run(capsys, "transport", "--budget", "1e-4")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_exact"] <= 1e-4 * (1 + 1e-9)
    assert doc["adiabatic"] is True
    assert set(doc) >= {"distance", "tau", "transit_time", "p_first_order", "p_exact", "phase"}


def test_compile_register_of_2_53_sites_reaches_its_last_site_exactly(capsys, tmp_path):
    last = 2**53 - 1
    (tmp_path / "circuit.txt").write_text(f"XOR q0 q{last}\n")
    code, out, _ = run(capsys, "compile", str(tmp_path / "circuit.txt"))
    assert code == 0
    prims = json.loads(out)["primitives"]
    assert [p["to_pos"] for p in prims if p["kind"] == "move"] == [0.0, last, 0.0]
    assert [p["atoms"] for p in prims if p["kind"] == "ising"] == [["h0", f"q{last}"]]


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_compile_non_finite_angle_rejected(capsys, tmp_path, angle):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(f"H q0\nPHASE1 q0 {angle}\n")
    schedule_path = tmp_path / "schedule.json"
    code, _, err = run(capsys, "compile", str(circuit), "--out", str(schedule_path))
    assert code == 1
    assert "line 2" in err and "finite" in err
    assert not schedule_path.exists()


@pytest.mark.parametrize("mode", ["direct", "mediated"])
@pytest.mark.parametrize("swap", ["heisenberg", "xors"])
def test_compile_then_simulate_round_trip(capsys, tmp_path, swap, mode):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("# two-gate demo\nXOR q0 q1\nH q0\n")
    schedule_path = tmp_path / "schedule.json"
    config = {"scheduler": {"swap_primitive": swap, "single_bit_mode": mode}}
    code, _, _ = _run_with_config(capsys, tmp_path, config, "compile", str(circuit), "--out", str(schedule_path))
    assert code == 0
    doc = json.loads(schedule_path.read_text())
    assert doc["format"] == "spinbus-schedule/3"
    assert doc["budget"]["ratio"] > 0

    code2, out, _ = _run_with_config(capsys, tmp_path, config, "simulate", str(schedule_path))
    assert code2 == 0
    rep = json.loads(out)
    assert rep["fidelity"] >= 1 - 1e-9
    assert rep["matches"] is True

    # re-reading reproduces the same fidelity, byte for byte
    code3, out2, _ = _run_with_config(capsys, tmp_path, config, "simulate", str(schedule_path))
    assert out == out2


def _compiled_schedule(capsys, tmp_path) -> dict:
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("XOR q0 q1\nH q0\n")
    schedule_path = tmp_path / "schedule.json"
    assert run(capsys, "compile", str(circuit), "--out", str(schedule_path))[0] == 0
    return json.loads(schedule_path.read_text())


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _first_primitive(doc, prim):
    return json.dumps({**doc, "primitives": [prim, *doc["primitives"][1:]]})


def _edited(doc, index, **fields):
    prims = [dict(p) for p in doc["primitives"]]
    prims[index].update(fields)
    return json.dumps({**doc, "primitives": prims})


def _bare_total_time(token):
    return lambda doc: json.dumps({**doc, "total_time_s": "@"}).replace('"@"', token)


def _retimed(doc, prims):
    """``doc`` with the primitives ``prims``, started back to back from 0, and
    its total time at the end of the last one."""
    prims, end = [dict(p) for p in prims], 0.0
    for prim in prims:
        prim["start_s"], end = end, end + prim["duration_s"]
    return json.dumps({**doc, "primitives": prims, "total_time_s": end})


def _edited_timing(doc):
    # a negative first duration, a broken start-time chain and a made-up total
    # time together, as a hand-edited schedule might carry them: the first is named
    prims = [dict(p) for p in doc["primitives"]]
    prims[0]["duration_s"] = -1.0
    prims[2]["start_s"] += 1e-6
    return json.dumps({**doc, "primitives": prims, "total_time_s": 123.0})


# defect -> (schedule text from a good schedule document, fragment of the error)
SCHEDULE_DEFECTS = {
    "array": (lambda doc: json.dumps([doc]), "must be a JSON object"),
    "no-register": (lambda doc: json.dumps(_without(doc, "register")), "schedule is missing keys: register"),
    "no-primitives": (lambda doc: json.dumps(_without(doc, "primitives")), "schedule is missing keys: primitives"),
    "circuit-not-lines": (
        lambda doc: json.dumps({**doc, "circuit": "XOR q0 q1"}), "schedule.circuit must be a JSON array of strings"
    ),
    "primitives-not-array": (
        lambda doc: json.dumps({**doc, "primitives": {}}), "schedule.primitives must be a JSON array, got {}"
    ),
    "unknown-kind": (
        lambda doc: _first_primitive(doc, {**doc["primitives"][0], "kind": "warp"}),
        'primitive 0: kind "warp" is not the compiled "move"',
    ),
    "extra-field": (lambda doc: _first_primitive(doc, {**doc["primitives"][0], "colour": 1}), "primitive 0"),
    "missing-field": (lambda doc: _first_primitive(doc, _without(doc["primitives"][0], "start_s")), "primitive 0"),
    "unknown-header": (
        lambda doc: _first_primitive(doc, {**doc["primitives"][0], "atom": "h1"}),
        'primitive 0: atom "h1" is not the compiled "h0"',
    ),
    "nan": (_bare_total_time("NaN"), "non-finite number NaN"),
    "infinity": (_bare_total_time("-Infinity"), "non-finite number -Infinity"),
    "overflow": (_bare_total_time("1e999"), "1e999 overflows"),
    "format-1": (lambda doc: json.dumps({**doc, "format": "spinbus-schedule/1"}), "unsupported schedule format"),
    # a /2 file, with the idle crosstalk totals that format carried, is refused by its format, not by its keys
    "format-2": (
        lambda doc: json.dumps({**doc, "format": "spinbus-schedule/2", "idle_crosstalk_phase_rad": 0.0,
                                "idle_infidelity_estimate": 0.0}),
        "error: unsupported schedule format 'spinbus-schedule/2'",
    ),
    "negative-duration": (
        lambda doc: _first_primitive(doc, {**doc["primitives"][0], "duration_s": -1.0}),
        "primitive 0: duration_s -1.0 is not the compiled ",
    ),
    "edited-timing": (_edited_timing, "primitive 0: duration_s -1.0 is not the compiled "),
    "late-first-start": (
        lambda doc: _first_primitive(doc, {**doc["primitives"][0], "start_s": 1e-9}), "primitive 0: start_s"
    ),
    "broken-chain": (
        lambda doc: _edited(doc, 1, start_s=doc["primitives"][1]["start_s"] + 1e-6), "primitive 1: start_s"
    ),
    "total-time": (lambda doc: json.dumps({**doc, "total_time_s": 123.0}), "total_time_s 123.0"),
    # primitive 10 is the one-bit H on q0, 1 the first swap, 4 the Ising pulse, 0 the first move,
    # 5 and 6 the commuting S on h0 and on q1
    "onebit-angle-dropped": (
        lambda doc: _edited(doc, 10, param=0.7), "primitive 10: param 0.7 is not the compiled null"
    ),
    "phase-without-angle": (
        lambda doc: _edited(doc, 10, gate="PHASE"), 'primitive 10: gate "PHASE" is not the compiled "H"'
    ),
    "unknown-onebit-gate": (lambda doc: _edited(doc, 10, gate="Q"), 'primitive 10: gate "Q" is not the compiled "H"'),
    "onebits-reordered": (
        lambda doc: _edited(json.loads(_edited(doc, 5, atom="q1")), 6, atom="h0"),
        'primitive 5: atom "q1" is not the compiled "h0"',
    ),
    "swap-same-atoms": (
        lambda doc: _edited(doc, 1, atoms=["q0", "q0"]),
        'primitive 1: atoms ["q0", "q0"] is not the compiled ["h0", "q0"]',
    ),
    "ising-same-atoms": (
        lambda doc: _edited(doc, 4, atoms=["h0", "h0"]),
        'primitive 4: atoms ["h0", "h0"] is not the compiled ["h0", "q1"]',
    ),
    "swap-qubit-pair": (
        lambda doc: _edited(doc, 1, atoms=["q0", "q1"]),
        'primitive 1: atoms ["q0", "q1"] is not the compiled ["h0", "q0"]',
    ),
    "atoms-not-a-pair": (
        lambda doc: _edited(doc, 1, atoms=["h0"]), 'primitive 1.atoms must be a JSON pair of strings, got ["h0"]'
    ),
    "qubit-moves": (lambda doc: _edited(doc, 0, atom="q0"), 'primitive 0: atom "q0" is not the compiled "h0"'),
    "unknown-atom": (lambda doc: _edited(doc, 10, atom="q9"), 'primitive 10: atom "q9" is not the compiled "q0"'),
    # primitives the compiler cannot write where they stand: a MOVE from elsewhere
    # than the header, a swap away from its qubit, a MOVE's plan or an Ising area edited
    "move-from-elsewhere": (
        lambda doc: _edited(doc, 0, from_pos=-3, to_pos=7), "primitive 0: from_pos -3.0 is not the compiled 0.5"
    ),
    "header-position-edited": (
        lambda doc: json.dumps({**doc, "register": {**doc["register"], "header_position": 1.5}}),
        "primitive 0: from_pos 0.5 is not the compiled 1.5",
    ),
    "site-spacing-zero": (
        lambda doc: json.dumps({**doc, "register": {**doc["register"], "site_spacing_m": 0.0}}),
        "site spacing must be positive, got 0.0",
    ),
    "header-away-from-swap": (
        lambda doc: _edited(doc, 0, to_pos=1.0), "primitive 0: to_pos 1.0 is not the compiled 0.0"
    ),
    "swap-between-sites": (
        lambda doc: _retimed(doc, doc["primitives"][1:]), 'primitive 0: kind "swap" is not the compiled "move"'
    ),
    "zero-length-move": (
        lambda doc: _retimed(doc, [doc["primitives"][0], {**doc["primitives"][0], "from_pos": 0.0, "duration_s": 0.0},
                                   *doc["primitives"][1:]]),
        'primitive 1: kind "move" is not the compiled "swap"',
    ),
    "move-unplannable": (
        lambda doc: _edited(doc, 0, to_pos=1e300), "primitive 0: to_pos 1e+300 is not the compiled 0.0"
    ),
    "move-tau-edited": (
        lambda doc: _edited(doc, 0, tau_s=doc["primitives"][0]["tau_s"] / 2), "primitive 0: tau_s "
    ),
    "move-p-exact-edited": (lambda doc: _edited(doc, 0, p_exact=0.0), "primitive 0: p_exact 0.0 is not the compiled "),
    "move-duration-edited": (
        lambda doc: _retimed(doc, [{**doc["primitives"][0], "duration_s": doc["primitives"][0]["duration_s"] / 2},
                                   *doc["primitives"][1:]]),
        "primitive 0: duration_s ",
    ),
    # the params are checked as a config's scheduler section is
    "params-coupling-zero": (
        lambda doc: json.dumps({**doc, "params": {**doc["params"], "j_swap_hz": 0}}), "j_swap_hz must be nonzero, got 0"
    ),
    "ising-area": (
        lambda doc: _edited(doc, 4, phase_rad=0.5), "primitive 4: phase_rad 0.5 is not the compiled 0.7853981633974483"
    ),
    # a /3 document that carries the idle crosstalk totals of /2, which no schedule holds now
    "idle-fields": (
        lambda doc: json.dumps({**doc, "idle_crosstalk_phase_rad": -3.0, "idle_infidelity_estimate": 5.0}),
        "error: unknown keys in schedule: idle_crosstalk_phase_rad, idle_infidelity_estimate",
    ),
    # a total time as a 300-digit JSON integer, shown as a float
    "total-time-huge-int": (
        lambda doc: json.dumps({**doc, "total_time_s": 10**300}), "total_time_s 1e+300 is not the compiled ",
    ),
    # a global phase not reduced into [-pi, pi]: wrapped by two turns, or beyond pi
    "global-phase-wrapped": (
        lambda doc: json.dumps({**doc, "global_phase_rad": doc["global_phase_rad"] + 4 * math.pi}),
        "is not reduced into [-pi, pi]",
    ),
    "global-phase-beyond-pi": (
        lambda doc: json.dumps({**doc, "global_phase_rad": 3.5}), "global_phase_rad 3.5 is not reduced into [-pi, pi]"
    ),
    "circuit-off-register": (
        lambda doc: json.dumps({**doc, "circuit": ["XOR q0 q1", "X q7"]}), "gate X q7 addresses an unreachable site q7"
    ),
    # each circuit entry is one gate, as the compiler writes it: not two lines, an empty line or a comment
    "circuit-entry-two-gates": (
        lambda doc: json.dumps({**doc, "circuit": ["XOR q0 q1\nXOR q0 q1", "H q0"]}),
        'circuit[0] must hold exactly one gate, got "XOR q0 q1\\nXOR q0 q1"',
    ),
    "circuit-entry-empty": (
        lambda doc: json.dumps({**doc, "circuit": [*doc["circuit"], ""]}), 'circuit[2] must hold exactly one gate, got ""'
    ),
    "circuit-entry-comment": (
        lambda doc: json.dumps({**doc, "circuit": [*doc["circuit"], "# note"]}),
        'circuit[2] must hold exactly one gate, got "# note"',
    ),
    "circuit-entry-unknown-gate": (
        lambda doc: json.dumps({**doc, "circuit": ["FOO q0"]}), "circuit[0]: line 1: unknown gate 'FOO'"
    ),
    # a circuit other than the one the primitives compile, or primitives added or dropped with the time kept
    "circuit-entry-edited": (
        lambda doc: json.dumps({**doc, "circuit": ["XOR q0 q1", "X q0"]}),
        'primitive 10: gate "H" is not the compiled "X"',
    ),
    "primitive-appended": (
        lambda doc: _retimed(doc, [*doc["primitives"], doc["primitives"][-1]]),
        "schedule has 12 primitives; its circuit compiles to 11",
    ),
    "primitive-dropped": (
        lambda doc: _retimed(doc, doc["primitives"][:-1]), "schedule has 10 primitives; its circuit compiles to 11"
    ),
}


@pytest.mark.parametrize("defect", list(SCHEDULE_DEFECTS))
def test_simulate_malformed_schedule_exit_1(capsys, tmp_path, defect):
    make_text, fragment = SCHEDULE_DEFECTS[defect]
    bad = tmp_path / "bad.json"
    bad.write_text(make_text(_compiled_schedule(capsys, tmp_path)))
    code, out, err = run(capsys, "simulate", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and fragment in err and err.count("\n") == 1, err


def test_simulate_register_beyond_2_53_sites_exit_1(capsys, tmp_path):
    doc = _compiled_schedule(capsys, tmp_path)
    doc["register"]["n_qubits"] = 2**53 + 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", str(edited))
    assert (code, out, err) == (1, "", f"error: register needs at most 2**53 qubits, got {2**53 + 1}\n")


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_non_utf8_input_exit_1(capsys, tmp_path, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(bad) in err and "not UTF-8" in err


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_unreadable_input_exit_1(capsys, tmp_path, command):
    code, out, err = run(capsys, command, str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path}")


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_missing_input_with_newline_in_its_name_is_one_error_line(capsys, tmp_path, command):
    code, out, err = run(capsys, command, str(tmp_path / "no\nsuch.txt"))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read ") and err.count("\n") == 1, err
    assert err.endswith("no\\nsuch.txt: No such file or directory\n")


def test_simulate_mismatch_reports_then_exits_2(capsys, tmp_path):
    doc = _compiled_schedule(capsys, tmp_path)
    doc["global_phase_rad"] += 0.3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", str(tampered))
    assert code == 2
    assert json.loads(out)["matches"] is False
    assert err.startswith("numerical failure: ")


def test_config_file_flows_through(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "species": {"Fr": {"mass_amu": 223.0, "alpha0_a03": 317.8, "lambda0_nm": 718.0}},
    }))
    code, out, _ = run(capsys, "--config", str(cfg), "tables", "--lattice", "red", "--species", "Fr")
    assert code == 0
    assert parse_csv(out)[0]["species"] == "Fr"


def _run_with_config(capsys, tmp_path, config, *argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run(capsys, "--config", str(cfg), *argv)


def test_one_header_trap_drives_transport_and_the_compiler(capsys, tmp_path):
    config = {"scheduler": {"trap_frequency_hz": 5e5, "p_budget": 1e-6}}
    configured = _run_with_config(capsys, tmp_path, config, "transport")
    assert configured == run(capsys, "transport", "--nu-trap-hz", "5e5", "--budget", "1e-6")
    assert configured[0] == 0
    # the header's first move of a lone XOR is from its parking spot, half a site
    half_site = repr(CO2_WAVELENGTH_M / 4)
    code, out, _ = _run_with_config(capsys, tmp_path, config, "transport", "--distance-m", half_site)
    assert code == 0
    (tmp_path / "circuit.txt").write_text("XOR q0 q1\n")
    code, schedule, _ = _run_with_config(capsys, tmp_path, config, "compile", str(tmp_path / "circuit.txt"))
    assert code == 0
    first_move = next(p for p in json.loads(schedule)["primitives"] if p["kind"] == "move")
    assert abs(first_move["to_pos"] - first_move["from_pos"]) == 0.5
    assert json.loads(out)["tau"] == first_move["tau_s"]
    # a move over the cap, or out of float range, fails both commands with one numerical failure line
    over_cap = "numerical failure: budget 0.0001 needs a 2.012e-04 s transit window, over the 1.000e-05 s cap\n"
    for config, err in [({"scheduler": {"max_move_duration_s": 1e-5}}, over_cap),
                        ({"scheduler": {"trap_frequency_hz": 1e-300}}, "numerical failure: distance_m 2.65e-06, ")]:
        failed = _run_with_config(capsys, tmp_path, config, "transport", "--distance-m", half_site)
        assert failed == _run_with_config(capsys, tmp_path, config, "compile", str(tmp_path / "circuit.txt"))
        assert failed[:2] == (2, "") and failed[2].startswith(err) and failed[2].count("\n") == 1, failed


def _paths(doc, prefix=()):
    """The path to every value inside a JSON document, containers included."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*prefix, key))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    parent[path[-1]] = value
    return doc


# numbers at the ends of the float range, drawn as often as every other kind
# of JSON value together, since most config leaves are numbers
_EXTREMES = st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 0, -1])
_JSON_VALUES = _EXTREMES | st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers() | _FINITE,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
README_CONFIG = regen.readme_config()
# the README example plus every key it leaves out, so that the fuzz reaches each of them
FUZZ_CONFIG = functools.reduce(lambda doc, item: _replaced(doc, *item), [
    (("red_lattice", "wavelength_m"), 10.6e-6),
    (("scheduler", "onebit_time_s"), 1e-5),
    (("scheduler", "swap_primitive"), "heisenberg"),
    (("scheduler", "max_move_duration_s"), 1e-3),
], README_CONFIG)
_FUZZ_COMMANDS = (
    ["tables", "--lattice", "red"],
    ["tables", "--lattice", "blue"],
    ["transport"],
    ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "2"],
)


def _assert_clean_exit(code, out, err):
    """Exit 0, 1 or 2; a failure writes one stderr line; no non-finite number on stdout."""
    assert code in (0, 1, 2), code
    if code:
        assert err.startswith("error: " if code == 1 else "numerical failure: ") and err.count("\n") == 1, err
    assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), out


def test_fuzzed_document_runs_every_command_unchanged(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG))
    (tmp_path / "circuit.txt").write_text("XOR q0 q1\nH q0\n")
    for argv in (*_FUZZ_COMMANDS, ["compile", str(tmp_path / "circuit.txt")]):
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert (code, err) == (0, ""), argv


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_paths(FUZZ_CONFIG))), value=_JSON_VALUES)
def test_fuzzed_config_exits_cleanly_from_every_command(capsys, tmp_path, path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_replaced(FUZZ_CONFIG, path, value)))
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("XOR q0 q1\nH q0\n")
    for argv in (*_FUZZ_COMMANDS, ["compile", str(circuit)]):
        _assert_clean_exit(*run(capsys, "--config", str(cfg), *argv))


# every object of the fuzzed config, the top level included; a key inserted
# into one is named in an error message, or is a species or rate source name
_CONFIG_OBJECTS = [
    path for path in [(), *_paths(FUZZ_CONFIG)]
    if isinstance(functools.reduce(lambda node, key: node[key], path, FUZZ_CONFIG), dict)
]
_CONTROL_KEYS = st.text(st.sampled_from("k\n\r\t\x00\x1b\x85"), min_size=1, max_size=3).filter(
    lambda key: not key.isprintable()
)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(section=st.sampled_from(_CONFIG_OBJECTS), key=_CONTROL_KEYS, value=_JSON_VALUES)
def test_fuzzed_config_key_exits_cleanly_from_every_command(capsys, tmp_path, section, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_replaced(FUZZ_CONFIG, (*section, key), value)))
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("XOR q0 q1\nH q0\n")
    for argv in (*_FUZZ_COMMANDS, ["compile", str(circuit)]):
        _assert_clean_exit(*run(capsys, "--config", str(cfg), *argv))


# a second valid value for each leaf of the fuzzed config; a number not listed here is scaled by 1.5
_OTHER_VALUES = {
    ("scheduler", "single_bit_mode"): "mediated",
    ("scheduler", "swap_primitive"): "xors",
    ("scheduler", "max_move_duration_s"): 1e-4,
    # the coherence time is the inverse of the largest rate
    ("scheduler", "rates_hz", "red_scattering"): 10.0,
}
_KEY_PROBES = (
    ["tables", "--lattice", "red"],
    ["tables", "--lattice", "blue"],
    ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "3"],
    ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc", "--samples", "10000"],
    ["transport"],
    ["compile", "circuit.txt"],
)


def _probe_outputs(capsys, config):
    """(exit code, stdout, stderr) of each probe command under ``config``;
    compile's stdout without the ``params`` block it copies from the config."""
    Path("cfg.json").write_text(json.dumps(config))
    for argv in _KEY_PROBES:
        code, out, err = run(capsys, "--config", "cfg.json", *argv)
        if argv[0] == "compile" and code == 0:
            out = json.dumps({**json.loads(out), "params": None})
        yield code, out, err


def test_every_config_key_moves_some_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a one-bit gate, which single_bit_mode compiles, and a two-qubit one, which every other scheduler key times
    Path("circuit.txt").write_text("H q0\nXOR q0 q1\n")
    reference = list(_probe_outputs(capsys, FUZZ_CONFIG))
    assert all(code == 0 for code, _, _ in reference)
    unread = []
    for path in _paths(FUZZ_CONFIG):
        value = functools.reduce(lambda node, key: node[key], path, FUZZ_CONFIG)
        if isinstance(value, dict):
            continue
        changed = _replaced(FUZZ_CONFIG, path, _OTHER_VALUES[path] if path in _OTHER_VALUES else 1.5 * value)
        if all(got == want for got, want in zip(_probe_outputs(capsys, changed), reference)):
            unread.append(".".join(path))
    assert unread == []


@pytest.mark.parametrize("out, reason", [
    ("nodir/x.out", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_out_that_cannot_be_written_exit_1_from_every_command(capsys, tmp_path, monkeypatch, out, reason):
    monkeypatch.chdir(tmp_path)
    Path("circuit.txt").write_text("XOR q0 q1\n")
    assert run(capsys, "compile", "circuit.txt", "--out", "schedule.json")[0] == 0  # for simulate
    for argv in (*_KEY_PROBES, ["tables", "--lattice", "blue", "--format", "json"], ["gatecheck"],
                 ["simulate", "schedule.json"]):
        assert run(capsys, *argv, "--out", out) == (1, "", f"error: cannot write {out}: {reason}\n"), argv


@functools.cache
def _compiled_schedule_doc() -> dict:
    from spinbus import scheduler as sch

    schedule = sch.compile_circuit(sch.parse_circuit("XOR q0 q1\nH q0\n"), sch.Register(n_qubits=2))
    return json.loads(sch.schedule_to_json(schedule))


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_schedule_exits_cleanly_from_simulate(capsys, tmp_path, data):
    doc = _compiled_schedule_doc()
    path = data.draw(st.sampled_from(list(_paths(doc))))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(_replaced(doc, path, data.draw(_JSON_VALUES))))
    _assert_clean_exit(*run(capsys, "simulate", str(schedule)))


@functools.cache
def _one_bit_schedule_doc() -> dict:
    """A compiled schedule with one-bit H, S and PHASE primitives."""
    from spinbus import scheduler as sch

    circuit = sch.parse_circuit("XOR q0 q1\nH q0\nPHASE1 q1 0.3\n")
    return json.loads(sch.schedule_to_json(sch.compile_circuit(circuit, sch.Register(n_qubits=2))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_schedule_the_loader_accepts_simulates_without_error(data):
    from spinbus import scheduler as sch
    from spinbus.errors import SpinBusError

    doc = _one_bit_schedule_doc()
    path = data.draw(st.sampled_from([("primitives", *path) for path in _paths(doc["primitives"])]))
    names = st.sampled_from(["X", "Z", "H", "S", "PHASE", "PHASE1", "XOR", "SWAP", "h0", "q0", "q1", "q7"])
    try:
        schedule = sch.schedule_from_json(json.dumps(_replaced(doc, path, data.draw(_JSON_VALUES | names))))
    except SpinBusError:
        return
    sch.simulate_schedule(schedule)  # two qubits, under the simulator's cap: nothing may raise


def _unwritable(how: str, argv: list, fd: int) -> tuple[list, int | None]:
    """``argv``, and the fd to pass as stream ``fd``, for a stream that cannot be
    written: /dev/full, a pipe whose reader has gone, or a fd closed at start."""
    if how == "dev-full":
        if not Path("/dev/full").exists():
            pytest.skip("needs /dev/full")
        return argv, os.open("/dev/full", os.O_WRONLY)
    if how == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        return argv, write_end
    # closed, so that Python starts with the sys stream None
    return ["sh", "-c", f'exec "$@" {fd}>&-', "sh", *argv], None


_CLI = [sys.executable, "-m", "spinbus.cli"]


@pytest.mark.parametrize("how, error, argv", [
    ("dev-full", errno.ENOSPC, ["tables", "--lattice", "red"]),
    ("closed-pipe", errno.EPIPE, ["tables", "--lattice", "red"]),
    ("closed-fd", errno.EBADF, ["tables", "--lattice", "red"]),
    ("dev-full", errno.ENOSPC, ["--help"]),
    ("closed-pipe", errno.EPIPE, ["--help"]),
    ("closed-fd", errno.EBADF, ["--help"]),
], ids=["dev-full", "closed-pipe", "closed-fd", "help-dev-full", "help-closed-pipe", "help-closed-fd"])
def test_stdout_that_cannot_be_written_exit_1_with_one_error_line(tmp_path, how, error, argv):
    argv, stdout = _unwritable(how, [*_CLI, *argv], 1)
    try:
        proc = subprocess.run(argv, cwd=tmp_path, env=child_env(), stdout=stdout, stderr=subprocess.PIPE, text=True)
    finally:
        if stdout is not None:
            os.close(stdout)
    # nothing more: no traceback, and no failed flush reported at exit
    assert (proc.returncode, proc.stderr) == (1, f"error: cannot write stdout: {os.strerror(error)}\n")


@pytest.mark.parametrize("how", ["dev-full", "closed-fd"])
@pytest.mark.parametrize("config, lattice, code", [
    ({}, "green", 1),  # a validation failure: green is not a lattice
    ({"red_lattice": {"wavelength_m": 1e300}}, "red", 2),  # a numerical one: nu_osc underflows to 0
], ids=["validation", "numerical"])
def test_failure_line_that_cannot_be_written_keeps_its_exit_code(tmp_path, how, config, lattice, code):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv, stderr = _unwritable(how, [*_CLI, "--config", "cfg.json", "tables", "--lattice", lattice], 2)
    try:
        proc = subprocess.run(argv, cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE, stderr=stderr)
    finally:
        if stderr is not None:
            os.close(stderr)
    assert (proc.returncode, proc.stdout) == (code, b"")


_RB87_CONFIG = {"species": {"Rb\u2078\u2077": {"mass_amu": 86.909, "alpha0_a03": 319.0, "lambda0_nm": 790.0}}}


@pytest.mark.parametrize("locale_env", [
    {"PYTHONIOENCODING": "ascii"},
    {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
], ids=["ascii-stdout", "c-locale"])
def test_files_are_read_and_written_as_utf8_whatever_the_locale(tmp_path, locale_env):
    (tmp_path / "u.json").write_text(json.dumps(_RB87_CONFIG, ensure_ascii=False), encoding="utf-8")
    (tmp_path / "c.txt").write_text("X q\u00b2\n", encoding="utf-8")
    table = ["--config", "u.json", "tables", "--lattice", "red"]

    def spinbus_run(*argv, **env):
        return subprocess.run([*_CLI, *argv], cwd=tmp_path, env=child_env(**env), capture_output=True)

    utf8 = spinbus_run(*table, PYTHONUTF8="1")
    assert (utf8.returncode, utf8.stderr) == (0, b"")
    assert "\nRb\u2078\u2077,red,".encode() in utf8.stdout
    local = spinbus_run(*table, **locale_env)
    assert (local.returncode, local.stdout, local.stderr) == (0, utf8.stdout, b"")
    written = spinbus_run(*table, "--out", "t.csv", **locale_env)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert (tmp_path / "t.csv").read_bytes() == utf8.stdout
    # a failure line too: the same bytes, not the locale's escapes
    refused = [spinbus_run("compile", "c.txt", **env) for env in ({"PYTHONUTF8": "1"}, locale_env)]
    assert [(r.returncode, r.stdout, r.stderr) for r in refused] == [
        (1, b"", "error: line 1: expected a qubit like q0, got 'q\u00b2': 'X q\u00b2'\n".encode())
    ] * 2


# one exit path each: success, --help, exit 1 and exit 2
_EXIT_PATHS = pytest.mark.parametrize("argv, code", [
    (["transport"], 0),
    (["--help"], 0),
    (["transport", "--budget", "2"], 1),
    (["transport", "--mass-amu", "1e-300"], 2),
], ids=["success", "help", "exit-1", "exit-2"])


@_EXIT_PATHS
def test_main_with_argv_freezes_nothing(capsys, argv, code):
    # a freeze after each in-process call would keep that call's cyclic garbage for good
    before = gc.get_freeze_count()
    assert run(capsys, *argv)[0] == code
    assert gc.get_freeze_count() == before


# main() on the interpreter's own command line, then the freeze counts before and after it
_FREEZE_PROBE = """
import gc, sys
from spinbus.cli import main
before = gc.get_freeze_count()
code = main()
print(before, gc.get_freeze_count())
sys.exit(code)
"""


@_EXIT_PATHS
def test_main_on_the_process_command_line_freezes_the_heap_on_every_exit_path(tmp_path, argv, code):
    proc = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    before, after = map(int, proc.stdout.splitlines()[-1].split())
    assert before == 0 < after


def test_simulate_writes_the_same_bytes_whatever_the_blas_thread_count(capsys, tmp_path):
    # a 7-site register: its 128 x 128 unitaries are large enough for a threaded BLAS to split a sum
    (tmp_path / "c.txt").write_text("XOR q0 q5\nH q2\nPHASE q1 q4\nSWAP q3 q0\nXOR q2 q4\nH q5\nPHASE q0 q3\nXOR q1 q2\n")
    assert run(capsys, "compile", str(tmp_path / "c.txt"), "--out", str(tmp_path / "s.json"))[0] == 0
    outs = [subprocess.run([*_CLI, "simulate", "s.json"], cwd=tmp_path, env=child_env(OPENBLAS_NUM_THREADS=n),
                           capture_output=True) for n in ("1", "2")]
    assert [(p.returncode, p.stderr) for p in outs] == [(0, b"")] * 2
    assert outs[0].stdout == outs[1].stdout
