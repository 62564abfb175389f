"""Byte-identity of the CLI outputs against the golden corpus in ``tests/golden``.

A change that alters one of these outputs on purpose regenerates the corpus
with ``tests/golden/regen.py`` and names the changed files in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)

EXPECTED = json.loads(regen.EXPECTED.read_text())


def test_corpus_holds_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(regen.CASES)
    assert sorted(p.stem for p in regen.CORPUS.glob("*.out")) == sorted(regen.CASES)


@pytest.mark.parametrize("name", list(regen.CASES))
def test_output_is_byte_identical_to_the_corpus(tmp_path, name):
    output, stderr, code = regen.run_case(name, tmp_path)
    assert (code, stderr) == (EXPECTED[name]["exit_code"], EXPECTED[name]["stderr"])
    assert output == (regen.CORPUS / f"{name}.out").read_bytes()
