"""Byte-identity of the CLI outputs against the golden corpus in ``tests/golden``.

Each case asserts its exit code, its stderr and its exact output bytes, read
from the ``.out`` file that ``expected.json`` names for it (none for an
empty output); cases with the same output share one file.  A change that
alters one of these outputs on purpose regenerates the corpus with
``tests/golden/regen.py`` and names the changed files in CHANGES.md.
Every case runs in process through ``main(argv)``; a few also run as fresh
``python -m spinbus.cli`` processes, whose ``main()`` exits another way.
"""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spinbus.cli import main
from conftest import child_env

_SPEC = importlib.util.spec_from_file_location("golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)

EXPECTED = json.loads(regen.EXPECTED.read_text())


def _expected(name: str) -> tuple[bytes, str, int]:
    """The output bytes, stderr and exit code that the corpus holds for case ``name``."""
    case = EXPECTED[name]
    output = b"" if case["output"] is None else (regen.CORPUS / case["output"]).read_bytes()
    return output, case["stderr"], case["exit_code"]


def test_corpus_holds_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(regen.CASES)
    named = {case["output"] for case in EXPECTED.values()} - {None}
    assert sorted(p.name for p in regen.CORPUS.glob("*.out")) == sorted(named)


@pytest.mark.parametrize("name", list(regen.CASES))
def test_output_is_byte_identical_to_the_corpus(tmp_path, name):
    assert regen.run_case(name, tmp_path) == _expected(name)


# run as fresh `python -m spinbus.cli` processes: a success to stdout, one to --out, an exit 1 and an exit 2
PROCESS_CASES = ["tables-red", "compile-xors-mediated", "refuse-transport-budget-2",
                 "refuse-config-red-wavelength-1e300-tables"]


def _process_entry(argv: list[str], workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "spinbus.cli", *argv], cwd=workdir, env=child_env(),
                          capture_output=True)


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_process_entry_writes_the_corpus(tmp_path, name):
    proc = _process_entry(regen.case_argv(name, tmp_path), tmp_path)
    assert (regen.case_output(name, tmp_path, proc.stdout), proc.stderr.decode(), proc.returncode) == _expected(name)


def test_process_entry_help_is_the_in_process_help(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal, which only one side may have
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["--help"]) == 0
    proc = _process_entry(["--help"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout.getvalue().encode(), b"")
