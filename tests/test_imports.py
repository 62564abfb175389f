"""Which modules each CLI command imports, checked in one fresh interpreter,
and how many BLAS threads the process entry leaves numpy.

The probe runs every command once, in order, in a new interpreter and
records which of the ``WATCHED`` modules are loaded after each one; the
rules table ``RULES`` then checks those snapshots.  A snapshot holds what
the command and every command before it loaded, so a command that must
leave a module unloaded runs before any command that loads it.

This module imports only the standard library and ``conftest``, which does
too, so pytest runs it on the package's runtime dependencies alone, as it
does next to the golden corpus in CI's ``runtime-deps`` job.  The thread counts are read from
``/proc/self/task``, so those tests need Linux.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import child_env

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


def _last_line_json(argv: list[str], workdir: Path, env: dict):
    proc = subprocess.run([sys.executable, "-c", *argv], cwd=workdir, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after_each_command(workdir: Path) -> dict:
    """Command name -> the ``WATCHED`` modules loaded once it has run."""
    (workdir / "circuit.txt").write_text("XOR q0 q1\nPHASE1 q1 0.5\n")
    return _last_line_json([_PROBE, json.dumps([COMMANDS, WATCHED])], workdir, child_env())


def test_each_command_loads_only_what_the_rules_allow(tmp_path):
    loaded = _loaded_after_each_command(tmp_path)
    broken = [
        f"{command} leaves {module} unloaded" if must else f"{command} loads {module}"
        for commands, module, must in RULES
        for command in commands
        if (module in loaded[command]) != must
    ]
    assert not broken, "\n".join(broken)


# the Monte Carlo scan through main() ("entry") or main(argv), then its exit code, whether os.environ
# changed, OMP_NUM_THREADS, whether numpy is loaded and the process's thread count
_BLAS_PROBE = """
import json, os, sys
from spinbus.cli import main
entry = sys.argv.pop(1) == "entry"
before = dict(os.environ)
code = main() if entry else main(sys.argv[1:])
after = dict(os.environ)
print(json.dumps([code, after != before, after.get("OMP_NUM_THREADS"), "numpy" in sys.modules,
                  len(os.listdir("/proc/self/task"))]))
"""

_MC_SCAN = ["scan", "--z0-min", "2100", "--z0-max", "2400", "--points", "2", "--mode", "mc", "--samples", "10000",
            "--out", "mc.csv"]


def test_the_process_entry_gives_numpy_one_blas_thread(tmp_path):
    # OpenBLAS would start one busy-waiting worker per further CPU at numpy's import
    assert _last_line_json([_BLAS_PROBE, "entry", *_MC_SCAN], tmp_path, child_env()) == [0, True, "1", True, 1]


def test_a_blas_thread_count_the_user_set_wins_over_the_entry_default(tmp_path):
    # OpenBLAS's own variable outranks OMP_NUM_THREADS, and it starts no more threads than the process may run on
    threads = min(2, len(os.sched_getaffinity(0)))
    for variable, omp in (("OPENBLAS_NUM_THREADS", "1"), ("OMP_NUM_THREADS", "2")):
        result = _last_line_json([_BLAS_PROBE, "entry", *_MC_SCAN], tmp_path, child_env(**{variable: "2"}))
        assert result == [0, omp == "1", omp, True, threads], variable


def test_main_with_argv_leaves_the_environment_alone(tmp_path):
    # numpy is usually loaded before an in-process call, and a library call keeps its caller's environment
    assert _last_line_json([_BLAS_PROBE, "argv", *_MC_SCAN], tmp_path, child_env())[:4] == [0, False, None, True]
