"""The frozen value records: repr, immutability, checks on ``replace``, field
errors and equality by type."""

import json

import pytest

from spinbus.cli import main
from spinbus.errors import DomainError
from spinbus.record import Record
from spinbus.traps import TrapGeometry

WIDTHS = dict(a_qr=400.0, a_qz=400.0, a_hr=100.0, a_hz=100.0)

# the compiler's message for a swap coupling too small to time, with the
# CompileParams repr that the dataclass version of the record printed
TINY_SWAP_ERROR = (
    "numerical failure: the swap pulse takes inf s, not a finite time > 0 (CompileParams(j_swap_hz=1e-310, "
    "j_gate_hz=-882.5, onebit_time_s=1e-05, trap_frequency_hz=982323.0, "
    "mass_kg=1.444668987942e-25, p_budget=0.0001, swap_primitive='heisenberg', single_bit_mode='direct', "
    "max_move_duration_s=None))\n"
)


def repr_lists_every_field(capsys, tmp_path):
    assert repr(TrapGeometry(**WIDTHS)) == "TrapGeometry(a_qr=400.0, a_qz=400.0, a_hr=100.0, a_hz=100.0)"
    (tmp_path / "cfg.json").write_text(json.dumps({"scheduler": {"j_swap_hz": 1e-310}}))
    (tmp_path / "circuit.txt").write_text("XOR q0 q1\n")
    assert main(["--config", str(tmp_path / "cfg.json"), "compile", str(tmp_path / "circuit.txt")]) == 2
    assert capsys.readouterr() == ("", TINY_SWAP_ERROR)


def fields_are_frozen(capsys, tmp_path):
    geometry = TrapGeometry(**WIDTHS)
    with pytest.raises(AttributeError):
        geometry.a_qr = 1.0
    with pytest.raises(AttributeError):
        del geometry.a_qr
    assert geometry.a_qr == 400.0


def replace_checks_again(capsys, tmp_path):
    geometry = TrapGeometry(**WIDTHS)
    assert geometry.replace(a_qr=300.0) == TrapGeometry(**{**WIDTHS, "a_qr": 300.0})
    with pytest.raises(DomainError, match="trap sizes must be positive"):
        geometry.replace(a_qr=-1.0)
    with pytest.raises(TypeError):
        geometry.replace(z0=1000.0)


def missing_field(capsys, tmp_path):
    with pytest.raises(TypeError, match="missing field 'a_hz'"):
        TrapGeometry(400.0, 400.0, 100.0)


def unknown_field(capsys, tmp_path):
    with pytest.raises(TypeError, match="no field 'z0'"):
        TrapGeometry(**WIDTHS, z0=1000.0)


def repeated_field(capsys, tmp_path):
    with pytest.raises(TypeError, match="field 'a_qr' twice"):
        TrapGeometry(400.0, **WIDTHS)
    with pytest.raises(TypeError, match="takes 4 fields, got 5"):
        TrapGeometry(400.0, 400.0, 100.0, 100.0, 1000.0)


def equal_only_within_a_type(capsys, tmp_path):
    class A(Record):
        x: float
        y: float = 2.0

    class B(Record):
        x: float
        y: float = 2.0

    assert A(1.0) == A(x=1.0, y=2.0) and A(1.0).as_dict() == B(1.0).as_dict() == {"x": 1.0, "y": 2.0}
    assert A(1.0) != B(1.0) and A(1.0) != A(1.0, 3.0)
    assert A(1.0) != {"x": 1.0, "y": 2.0}


CASES = [repr_lists_every_field, fields_are_frozen, replace_checks_again, missing_field, unknown_field,
         repeated_field, equal_only_within_a_type]


@pytest.mark.parametrize("case", CASES, ids=[case.__name__ for case in CASES])
def test_record(case, capsys, tmp_path):
    case(capsys, tmp_path)
