"""Which modules each CLI command imports, checked in one fresh interpreter.

The probe runs every command once, in order, in a new interpreter and
records which of the ``WATCHED`` modules are loaded after each one; the
rules table ``RULES`` then checks those snapshots.  A snapshot holds what
the command and every command before it loaded, so a command that must
leave a module unloaded runs before any command that loads it.

This module imports only the standard library, so pytest runs it on the
package's runtime dependencies alone, as it does next to the golden corpus
in CI's ``runtime-deps`` job.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

WATCHED = ("numpy", "scipy", "click", "dataclasses", "logging", "concurrent.futures", "spinbus.scheduler")

# name -> argv, run in this order in one interpreter
COMMANDS = {
    "tables-red": ["tables", "--lattice", "red"],
    "tables-blue-json": ["tables", "--lattice", "blue", "--format", "json"],
    "transport": ["transport"],
    "scan-quadrature": ["scan", "--z0-min", "200", "--z0-max", "2500", "--points", "5"],
    "gatecheck": ["gatecheck"],
    "compile": ["compile", "circuit.txt", "--out", "schedule.json"],
    "simulate": ["simulate", "schedule.json"],
    "scan-mc": ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc", "--samples", "10000"],
}

# the commands that run on plain floats, without the scheduler
LIGHT = ("tables-red", "tables-blue-json", "transport", "scan-quadrature", "gatecheck")

# (commands, module, loaded): after each of the commands, ``module`` is loaded exactly when ``loaded``
RULES = (
    (LIGHT, "numpy", False),
    (("compile",), "numpy", False),
    (LIGHT, "spinbus.scheduler", False),
    # scipy is a test reference and click no dependency; the records are built without dataclasses,
    # which would cost every command its import of inspect, ast, dis and tokenize
    (tuple(COMMANDS), "scipy", False),
    (tuple(COMMANDS), "click", False),
    (tuple(COMMANDS), "dataclasses", False),
    # no command logs; the Monte Carlo workers are threads, not a concurrent.futures pool, which imports logging
    (tuple(COMMANDS), "logging", False),
    (tuple(COMMANDS), "concurrent.futures", False),
    # the controls: the probe sees a module once a command imports it
    (("compile",), "spinbus.scheduler", True),
    (("simulate",), "numpy", True),
)

_PROBE = """
import json, sys
from spinbus.cli import main
commands, watched = json.loads(sys.argv[1])
loaded = {}
for name, argv in commands.items():
    if main(argv) != 0:
        sys.exit(f"command failed: {name}")
    loaded[name] = [module for module in watched if module in sys.modules]
print(json.dumps(loaded))
"""


def _loaded_after_each_command(workdir: Path) -> dict:
    """Command name -> the ``WATCHED`` modules loaded once it has run."""
    (workdir / "circuit.txt").write_text("XOR q0 q1\nPHASE1 q1 0.5\n")
    # the interpreter imports the package from where this one finds it: src/ or the install
    src = str(Path(importlib.util.find_spec("spinbus").origin).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([COMMANDS, WATCHED])],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_loads_only_what_the_rules_allow(tmp_path):
    loaded = _loaded_after_each_command(tmp_path)
    broken = [
        f"{command} leaves {module} unloaded" if must else f"{command} loads {module}"
        for commands, module, must in RULES
        for command in commands
        if (module in loaded[command]) != must
    ]
    assert not broken, "\n".join(broken)
