"""The golden output corpus: the cases, how each one runs, and its regeneration.

Each case runs one CLI command in process, without a config or with the
README example config, and yields the output bytes (stdout, or the file
that ``--out`` names), stderr and the exit code.  ``tests/test_golden.py``
compares them with the corpus stored next to this file.  The cases are the
commands whose bytes CPython's float arithmetic fixes; ``simulate`` and the
Monte Carlo scan run on numpy and stay on their tolerance tests.  The
refusals (bad flags, bad configs) run once each, under every command a bad
config fails; their stderr line and exit code are what they hold.

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
import sys
import tempfile
from pathlib import Path

from spinbus.cli import main

CORPUS = Path(__file__).resolve().parent
EXPECTED = CORPUS / "expected.json"  # exit code, stderr and output file of each case
README = CORPUS.parents[1] / "README.md"

# one short circuit that uses every logical gate
CIRCUIT = "X q0\nZ q1\nH q2\nPHASE1 q1 0.3\nXOR q0 q2\nSWAP q1 q0\nPHASE q2 q1\n"
# the cases that compile another circuit: a qubit is q then ASCII digits, in at most 2**53 sites
CIRCUITS = {
    "refuse-compile-qubit-superscript": "X q\u00b2\n",
    "refuse-compile-qubit-5000-digits": f"X q{'9' * 5000}\n",
    "refuse-compile-register-beyond-2-53": "XOR q0 q9007199254740993\n",
}


def readme_config() -> dict:
    """The example config of the README's "Config file" section."""
    text = README.read_text(encoding="utf-8")
    return json.loads(text.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0])


def _cases() -> dict:
    """name -> (config or None, argv); ``{circuit}`` and ``{out}`` are file names."""
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
                {"swap_primitive": swap, "single_bit_mode": mode},
                ["compile", "{circuit}", "--out", "{out}"],
            )
    readme = readme_config()
    cases = {}
    for name, (scheduler, argv) in commands.items():
        cases[name] = ({"scheduler": scheduler} if scheduler else None, argv)
        cases[f"{name}-readme"] = ({**readme, "scheduler": {**readme["scheduler"], **scheduler}}, argv)
    # refusals, each run once: the message and exit code are the output
    for flags in (["--tolerance", "nan"], ["--rwa-threshold", "-inf"], ["--tolerance", "1.5"],
                  ["--rwa-threshold", "-0.1"]):
        cases[f"refuse-gatecheck{flags[0][1:]}-{flags[1]}"] = (None, ["gatecheck", *flags])
    cases["refuse-tables-empty-species"] = (None, ["tables", "--lattice", "red", "--species", ""])
    cases["refuse-scan-points-1"] = (None, ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "1"])
    cases["refuse-scan-points-1e20"] = (
        None, ["scan", "--z0-min", "100", "--z0-max", "200", "--points", "100000000000000000000"]
    )
    cases["refuse-scan-samples-1e20"] = (
        None, ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc",
               "--samples", "100000000000000000000"]
    )
    # a transport flag is refused by its name and the value typed; a mass whose kg underflows exits 2
    for flag, value in (("--nu-trap-hz", "nan"), ("--nu-trap-hz", "0"), ("--mass-amu", "0"), ("--mass-amu", "1e-300"),
                        ("--distance-m", "-1"), ("--budget", "2")):
        cases[f"refuse-transport{flag[1:]}-{value}"] = (None, ["transport", flag, value])
    for name in CIRCUITS:
        cases[name] = (None, ["compile", "{circuit}"])
    every_command = {
        "tables": ["tables", "--lattice", "red"],
        "transport": ["transport"],
        "scan": ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "5"],
        "gatecheck": ["gatecheck"],
        "compile": ["compile", "{circuit}"],
        "simulate": ["simulate", "schedule.json"],  # the config fails before the file is read
    }
    bad_configs = {
        "mistyped": {"geometry": {"a_qr_a0": "400"}},
        "deleted-key": {"scattering": {"nu_ref_hz": 172128}},
        "transport-section": {"transport": {"nu_trap_hz": 5e5}},
        "mc-section": {"mc": {"seed": 7}},
        "single-bit-mode": {"scheduler": {"single_bit_mode": "relay"}},
    }
    for config_name, config in bad_configs.items():
        for command, argv in every_command.items():
            cases[f"refuse-config-{config_name}-{command}"] = (config, argv)
    # several faults: the same one is reported whatever the document order
    cases["refuse-config-faults-budget-geometry"] = (
        {"scheduler": {"p_budget": 2}, "geometry": {"a_qr_a0": "x"}}, every_command["tables"]
    )
    cases["refuse-config-faults-budget-red-lattice"] = (
        {"scheduler": {"p_budget": 2}, "red_lattice": {"intensity_w_cm2": -1}}, every_command["tables"]
    )
    # a lattice wavelength so long that nu_osc underflows to 0: a numerical failure naming the inputs
    cases["refuse-config-red-wavelength-1e300-tables"] = (
        {"red_lattice": {"wavelength_m": 1e300}}, every_command["tables"]
    )
    # species names that --species could never select fail at load
    fr = {"mass_amu": 223.0, "alpha0_a03": 317.8, "lambda0_nm": 718.0}
    cases["refuse-config-species-names-tables"] = ({"species": {"": fr, "A,B": fr}}, every_command["tables"])
    # a lone surrogate is valid JSON, but no output could write it as UTF-8
    cases["refuse-config-species-name-surrogate-tables"] = ({"species": {"X\udce2": fr}}, every_command["tables"])
    # a half-site move over the move cap: transport fails it as compile does
    cases["refuse-config-move-cap-transport"] = (
        {"scheduler": {"max_move_duration_s": 1e-5}}, ["transport", "--distance-m", "2.65e-06"]
    )
    # a mass is checked in the amu typed: exit 1 if it is not positive, 2 if its kg underflows to 0
    for section, command in (("scheduler", "transport"), ("scattering", "scan")):
        for label, mass in (("0", 0), ("negative", -1), ("1e-300", 1e-300)):
            cases[f"refuse-config-{section}-mass-amu-{label}-{command}"] = (
                {section: {"mass_amu": mass}}, every_command[command]
            )
    # a negative rate fails at load, so even under gatecheck, which reads no rate
    cases["refuse-config-negative-rate-gatecheck"] = (
        {"scheduler": {"rates_hz": {"gamma_eff_blue": -1.0}}}, every_command["gatecheck"]
    )
    return cases


CASES = _cases()


def case_argv(name: str, workdir: Path) -> list[str]:
    """The command line of case ``name``, its circuit and config files written into ``workdir``."""
    config, argv = CASES[name]
    circuit = workdir / "circuit.txt"
    circuit.write_text(CIRCUITS.get(name, CIRCUIT), encoding="utf-8")
    argv = [arg.format(circuit=circuit, out=workdir / "out") for arg in argv]
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(workdir / "config.json"), *argv]
    return argv


def case_output(name: str, workdir: Path, stdout: bytes) -> bytes:
    """The output bytes of case ``name`` once it has run in ``workdir``: the
    file that ``--out`` names, or ``stdout``."""
    return (workdir / "out").read_bytes() if "{out}" in CASES[name][1] else stdout


def run_case(name: str, workdir: Path) -> tuple[bytes, str, int]:
    """The output bytes, stderr and exit code of case ``name``, run in process in ``workdir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(case_argv(name, workdir))
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
