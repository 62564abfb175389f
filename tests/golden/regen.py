"""The golden output corpus: the cases, how each one runs, and its regeneration.

Each case runs one CLI command in process, in a directory of its own that
holds its circuit file and its config file, if it has one: the README
example config, another JSON document, or a config file's raw text, for a
number such as ``1e999`` that ``json.dumps`` cannot write.  It yields the
output bytes (stdout, or the file that ``--out`` names), stderr and the
exit code.  ``tests/test_golden.py`` compares them with the corpus stored
next to this file.  The cases are the commands whose bytes CPython's float
arithmetic fixes; ``simulate`` and the Monte Carlo scan compute on numpy
and stay on their tolerance tests.  The refusals (bad flags, circuits and
configs, and a ``--config`` path that does not exist) run once each, a bad
config under each of the seven commands.  A config is refused at load,
before numpy is imported, so the Monte Carlo scan is among those commands
and every case runs on the standard library alone.  A refusal's stderr
line and exit code are what it holds.

``expected.json`` holds each case's exit code, its stderr and the name of
the ``.out`` file that holds its output bytes, or ``null`` for an empty
output, as every refusal has.  Each distinct output is stored once, in a
file named after the first case that writes it: a ``-readme`` case whose
config changes nothing in its output shares its default case's file.

After a change that alters an output on purpose, regenerate the corpus from
the repository root and name the changed files in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from spinbus.cli import main

CORPUS = Path(__file__).resolve().parent
EXPECTED = CORPUS / "expected.json"  # exit code, stderr and output file of each case
README = CORPUS.parents[1] / "README.md"

# one short circuit that uses every logical gate
CIRCUIT = "X q0\nZ q1\nH q2\nPHASE1 q1 0.3\nXOR q0 q2\nSWAP q1 q0\nPHASE q2 q1\n"
# the cases that compile another circuit: a qubit is q then ASCII digits, in at most 2**53 sites,
# and a gate takes its number of distinct qubits and, if it takes one, a number as its angle
CIRCUITS = {
    "refuse-compile-qubit-superscript": "X q\u00b2\n",
    "refuse-compile-qubit-5000-digits": f"X q{'9' * 5000}\n",
    "refuse-compile-register-beyond-2-53": "XOR q0 q9007199254740993\n",
    "refuse-compile-register-400-digits": f"XOR q0 q{'9' * 400}\n",
    "refuse-compile-xor-one-qubit": "XOR q0\n",
    "refuse-compile-xor-same-qubit": "XOR q0 q0\n",
    "refuse-compile-angle-abc": "PHASE1 q0 abc\n",
}


def readme_config() -> dict:
    """The example config of the README's "Config file" section."""
    text = README.read_text(encoding="utf-8")
    return json.loads(text.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0])


def _cases() -> dict:
    """name -> (config, argv): no config (None), a JSON document (a dict) or a
    config file's raw text (a str); the argv names files in the case's directory."""
    commands = {
        "tables-red": ({}, ["tables", "--lattice", "red"]),
        "tables-blue-json": ({}, ["tables", "--lattice", "blue", "--format", "json"]),
        "transport": ({}, ["transport"]),
        "scan-quadrature-60": ({}, ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "60"]),
        "scan-quadrature-60-first-principles": (
            {}, ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "60", "--gamma-mode", "first_principles"]
        ),
        "gatecheck": ({}, ["gatecheck"]),
    }
    for swap in ("heisenberg", "xors"):
        for mode in ("direct", "mediated"):
            commands[f"compile-{swap}-{mode}"] = (
                {"swap_primitive": swap, "single_bit_mode": mode}, ["compile", "circuit.txt", "--out", "out"]
            )
    readme = readme_config()
    cases = {}
    for name, (scheduler, argv) in commands.items():
        cases[name] = ({"scheduler": scheduler} if scheduler else None, argv)
        cases[f"{name}-readme"] = ({**readme, "scheduler": {**readme["scheduler"], **scheduler}}, argv)
    cases["transport-distance-0"] = (None, ["transport", "--distance-m", "0"])  # the plan that moves nothing
    # a fidelity of 1 is a valid threshold that the RWA scan cannot meet: the report, then exit 2
    cases["gatecheck-rwa-threshold-1"] = (None, ["gatecheck", "--rwa-threshold", "1.0"])
    # refusals, each run once: the message and exit code are the output.  argparse's own lines,
    # but for an invalid choice, whose wording differs across Pythons
    usage = {
        "no-command": [],
        "unknown-option": ["tables", "--lattice", "red", "--colour", "blue"],
        "missing-required-option": ["tables"],
        "missing-value": ["tables", "--lattice"],
        "non-numeric-float": ["scan", "--z0-min", "near", "--z0-max", "2500", "--points", "3"],
        "non-numeric-int": ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "3.5"],
        "abbreviated-option": ["scan", "--z0-min", "200", "--z0-max", "2500", "--poi", "3"],
        "abbreviated-optional-option": ["tables", "--lattice", "red", "--form", "json"],
    }
    for label, argv in usage.items():
        cases[f"refuse-usage-{label}"] = (None, argv)
    for flags in (["--tolerance", "nan"], ["--rwa-threshold", "-inf"], ["--tolerance", "1.5"],
                  ["--rwa-threshold", "-0.1"]):
        cases[f"refuse-gatecheck{flags[0][1:]}-{flags[1]}"] = (None, ["gatecheck", *flags])
    # an empty --species is a name that matches no species; csv would write a twice-named row twice, json once
    cases["refuse-tables-species-unknown"] = (None, ["tables", "--lattice", "red", "--species", "Xx"])
    for fmt in ("csv", "json"):
        for label, species in (("twice", "Rb,Cs, Rb"), ("empty", ""), ("blank", " "), ("trailing-comma", "Rb,")):
            cases[f"refuse-tables-species-{label}-{fmt}"] = (
                None, ["tables", "--lattice", "red", "--species", species, "--format", fmt]
            )
    cases["refuse-scan-points-1"] = (None, ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "1"])
    cases["refuse-scan-points-1e20"] = (
        None, ["scan", "--z0-min", "100", "--z0-max", "200", "--points", "100000000000000000000"]
    )
    # a z0 grid that reaches 0, or whose point-dipole reference leaves float range; a value-taking
    # option takes the next token even when it looks like an option (negative-scientific)
    for label, z0_min, z0_max, points in (("grid-crosses-zero", "100", "-100", "3"),
                                          ("negative-scientific", "-1e-100", "2500", "3"),
                                          ("cube-underflows", "1e-100", "1e-100", "2"),
                                          ("cube-overflows", "1e200", "1e200", "2")):
        cases[f"refuse-scan-z0-{label}"] = (None, ["scan", "--z0-min", z0_min, "--z0-max", z0_max, "--points", points])
    mc_scan = ["scan", "--z0-min", "600", "--z0-max", "900", "--points", "2", "--mode", "mc"]
    cases["refuse-scan-seed-negative"] = (None, [*mc_scan, "--samples", "10000", "--seed", "-1"])
    cases["refuse-scan-samples-0"] = (None, [*mc_scan, "--samples", "0"])
    cases["refuse-scan-samples-1e20"] = (
        None, ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc",
               "--samples", "100000000000000000000"]
    )
    # a float flag is refused by its name and the value typed
    for argv, flags in ((["scan", "--z0-max", "2500", "--points", "2"], ["--z0-min"]),
                        (["scan", "--z0-min", "200", "--points", "2"], ["--z0-max"]),
                        (["transport"], ["--distance-m", "--nu-trap-hz", "--mass-amu", "--budget"])):
        for flag in flags:
            for value in ("nan", "inf", "-inf"):
                cases[f"refuse-{argv[0]}{flag[1:]}-{value}"] = (None, [*argv, flag, value])
    # a transport value out of its range; a mass whose kg underflows exits 2
    for flag, value in (("--nu-trap-hz", "0"), ("--mass-amu", "0"), ("--mass-amu", "1e-300"), ("--distance-m", "-1"),
                        ("--budget", "2")):
        cases[f"refuse-transport{flag[1:]}-{value}"] = (None, ["transport", flag, value])
    for name in CIRCUITS:
        cases[name] = (None, ["compile", "circuit.txt"])
    cases["refuse-compile-qubits-0"] = (None, ["compile", "circuit.txt", "--qubits", "0"])
    cases["refuse-compile-qubits-beyond-2-53"] = (None, ["compile", "circuit.txt", "--qubits", str(2**53 + 1)])
    every_command = {
        "tables": ["tables", "--lattice", "red"],
        "transport": ["transport"],
        "scan": ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "5"],
        "scan-mc": ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc",
                    "--samples", "10000"],
        "gatecheck": ["gatecheck"],
        "compile": ["compile", "circuit.txt"],
        "simulate": ["simulate", "schedule.json"],  # the config fails before the file is read
    }
    fr = {"mass_amu": 223.0, "alpha0_a03": 317.8, "lambda0_nm": 718.0}
    # each fails at load, before numpy is imported
    bad_configs = {
        "mistyped": {"geometry": {"a_qr_a0": "400"}},
        "scheduler-string": {"scheduler": {"j_swap_hz": "1"}},
        "rates-null": {"scheduler": {"rates_hz": {"red_scattering": None}}},
        "blue-bool": {"blue_lattice": {"rabi_hz": True}},
        "species-missing-key": {"species": {"Fr": {"mass_amu": 223.0, "alpha0_a03": 317.8}}},
        "single-bit-mode": {"scheduler": {"single_bit_mode": "relay"}},
        "swap-primitive": {"scheduler": {"swap_primitive": "cnot"}},
        # keys that no command reads, some of them read by earlier versions
        "deleted-key": {"scattering": {"nu_ref_hz": 172128}},
        "transport-section": {"transport": {"nu_trap_hz": 5e5}},
        "mc-section": {"mc": {"seed": 7}},
        "former-species-linewidth": {"species": {"Fr": {**fr, "linewidth_hz": 1e7}}},
        "former-geometry-z0": {"geometry": {"z0_a0": 1000}},
        # a key is escaped as in JSON, so the message stays on one line
        "species-name-newline": {"species": {"\n": None}},
        "section-key-newline": {"geometry": {"bad\nkey": 1}},
        "top-level-key-newline": {"x\ny": {}},
        # species names that --species could never select
        "species-names": {"species": {"": fr, "A,B": fr}},
        "species-name-comma": {"species": {"A,B": fr}},
        "species-name-padded": {"species": {" Fr": fr}},
        # a lone surrogate is valid JSON, but no output could write it as UTF-8
        "species-name-surrogate": {"species": {"X\udce2": fr}},
        # the header trap is range-checked at load, whichever command uses it
        "budget-above-1": {"scheduler": {"p_budget": 2}},
        "budget-zero": {"scheduler": {"p_budget": 0}},
        "frequency-negative": {"scheduler": {"trap_frequency_hz": -1}},
        "move-cap-negative": {"scheduler": {"max_move_duration_s": -1}},
        "separation-zero": {"scheduler": {"gate_separation_a0": 0}},
        "separation-negative": {"scheduler": {"gate_separation_a0": -5}},
        "onebit-negative": {"scheduler": {"onebit_time_s": -1e-5}},
        # a zero coupling realizes no pulse phase, so no compiled pulse could use it
        "gate-coupling-zero": {"scheduler": {"j_gate_hz": 0}},
        "swap-coupling-zero": {"scheduler": {"j_swap_hz": 0.0}},
        # a negative rate fails even under gatecheck, which reads no rate
        "negative-rate": {"scheduler": {"rates_hz": {"gamma_eff_blue": -1.0}}},
        # a mass is checked in the amu typed: one that is not positive exits 1, one whose kg underflows 2 (below)
        "scheduler-mass-amu-0": {"scheduler": {"mass_amu": 0}},
        "scheduler-mass-amu-negative": {"scheduler": {"mass_amu": -1}},
        "scattering-mass-amu-0": {"scattering": {"mass_amu": 0}},
        "scattering-mass-amu-negative": {"scattering": {"mass_amu": -1}},
    }
    for command, argv in every_command.items():
        for config_name, config in bad_configs.items():
            cases[f"refuse-config-{config_name}-{command}"] = (config, argv)
        cases[f"refuse-config-missing-file-{command}"] = (None, ["--config", "cfg.json", *argv])  # no case writes it
    for section, command in (("scheduler", "transport"), ("scattering", "scan")):
        cases[f"refuse-config-{section}-mass-amu-1e-300-{command}"] = (
            {section: {"mass_amu": 1e-300}}, every_command[command]
        )
    # numbers that JSON does not hold, the last one only as raw text
    for label, token in (("nan", "NaN"), ("infinity", "Infinity"), ("minus-infinity", "-Infinity"), ("1e999", "1e999")):
        cases[f"refuse-config-number-{label}-tables"] = (
            '{"red_lattice": {"intensity_w_cm2": %s}}' % token, every_command["tables"]
        )
    # several faults: the same one is reported whatever the document order
    cases["refuse-config-faults-budget-geometry"] = (
        {"scheduler": {"p_budget": 2}, "geometry": {"a_qr_a0": "x"}}, every_command["tables"]
    )
    cases["refuse-config-faults-budget-red-lattice"] = (
        {"scheduler": {"p_budget": 2}, "red_lattice": {"intensity_w_cm2": -1}}, every_command["tables"]
    )
    # a trap input, or a value derived from it, out of float range: a numerical failure naming the inputs.
    # A lattice wavelength so long that nu_osc underflows to 0, a mass or a resonance wavelength underflowing
    for label, config, lattice in (
        ("blue-detuning-1e300", {"blue_lattice": {"detuning_hz": 1e300}}, "blue"),
        ("blue-rabi-1e300", {"blue_lattice": {"rabi_hz": 1e300}}, "blue"),
        ("red-wavelength-1e300", {"red_lattice": {"wavelength_m": 1e300}}, "red"),
    ):
        cases[f"refuse-config-{label}-tables"] = (config, ["tables", "--lattice", lattice])
    for lattice, key, label, value in (("red", "lambda0_nm", "1e-150", 1e-150), ("blue", "lambda0_nm", "1e-150", 1e-150),
                                       ("red", "mass_amu", "1e-300", 1e-300),
                                       ("blue", "lambda0_nm", "1e-320", 1e-320), ("blue", "lambda0_nm", "1e300", 1e300)):
        cases[f"refuse-config-fr-{key}-{label}-{lattice}-tables"] = (
            {"species": {"Fr": {**fr, key: value}}}, ["tables", "--lattice", lattice, "--species", "Fr"]
        )
    # trap widths whose powers leave float range fail the quadrature scan
    for label, geometry in (("square-overflows", {"a_qz_a0": 1e200}),
                            ("square-underflows", {"a_qr_a0": 1e-200, "a_hr_a0": 1e-200}),
                            ("coupling-overflows", {"a_qr_a0": 1e-150, "a_hr_a0": 1e-150})):
        cases[f"refuse-config-widths-{label}-scan"] = (
            {"geometry": geometry},
            ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "2", "--mode", "quadrature"],
        )
    # a half-site move over the move cap: transport fails it as compile does
    cases["refuse-config-move-cap-transport"] = (
        {"scheduler": {"max_move_duration_s": 1e-5}}, ["transport", "--distance-m", "2.65e-06"]
    )
    # scheduler values that load, but that no compiled schedule can hold
    for label, scheduler in (("crosstalk-infinite", {"j_gate_hz": 1e308}),
                             ("infidelity-overflows", {"j_gate_hz": 1e200}),
                             ("onebit-huge", {"onebit_time_s": 1e300})):
        cases[f"refuse-config-{label}-compile"] = ({"scheduler": scheduler}, every_command["compile"])
    # a schedule that compiles, but whose time over the coherence time of its worst rate overflows
    cases["refuse-config-budget-ratio-overflows-compile"] = (
        {"scheduler": {"rates_hz": {"x": 1e308}, "onebit_time_s": 1e10}}, every_command["compile"]
    )
    return cases


CASES = _cases()


def case_argv(name: str, workdir: Path) -> list[str]:
    """The command line of case ``name``, run in ``workdir``, its circuit and config files written there."""
    config, argv = CASES[name]
    (workdir / "circuit.txt").write_text(CIRCUITS.get(name, CIRCUIT), encoding="utf-8")
    if config is None:
        return argv
    (workdir / "config.json").write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    return ["--config", "config.json", *argv]


def case_output(name: str, workdir: Path, stdout: bytes) -> bytes:
    """The output bytes of case ``name`` once it has run in ``workdir``: the
    file that ``--out`` names, or ``stdout``."""
    return (workdir / "out").read_bytes() if "--out" in CASES[name][1] else stdout


def run_case(name: str, workdir: Path) -> tuple[bytes, str, int]:
    """The output bytes, stderr and exit code of case ``name``, run in process in ``workdir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv, cwd = case_argv(name, workdir), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return case_output(name, workdir, stdout.getvalue().encode()), stderr.getvalue(), code


def regenerate() -> None:
    expected, files = {}, {}  # files: output bytes -> the file that holds them
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            output, stderr, code = run_case(name, Path(tmp))
        file = files.setdefault(output, f"{name}.out") if output else None
        expected[name] = {"exit_code": code, "output": file, "stderr": stderr}
    for output, file in files.items():
        (CORPUS / file).write_bytes(output)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    for stale in sorted({p.name for p in CORPUS.glob("*.out")} - set(files.values())):
        (CORPUS / stale).unlink()
    print(f"wrote {len(CASES)} cases, {len(files)} output files, to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
