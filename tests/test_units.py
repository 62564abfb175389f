import math

import pytest
from scipy import constants as codata

from spinbus import units
from spinbus.errors import DomainError

AMU = units.ATOMIC_MASS


def test_constants_match_codata_to_6_digits():
    # independent source: scipy's CODATA table
    pairs = [
        (units.HBAR, codata.hbar),
        (units.H_PLANCK, codata.h),
        (units.BOHR_RADIUS, codata.value("Bohr radius")),
        (units.BOHR_MAGNETON, codata.value("Bohr magneton")),
        (units.ATOMIC_MASS, codata.value("atomic mass constant")),
        (units.SPEED_OF_LIGHT, codata.c),
        (units.VACUUM_PERMITTIVITY, codata.epsilon_0),
        (units.VACUUM_PERMEABILITY, codata.mu_0),
    ]
    for ours, ref in pairs:
        assert abs(ours - ref) <= 5e-7 * abs(ref)


def test_h_is_exactly_two_pi_hbar_as_stored():
    assert units.H_PLANCK == 2.0 * math.pi * units.HBAR


def test_recoil_frequency_rb_resonance():
    # printed table value 3.7 kHz for Rb at 780 nm
    er = units.recoil_frequency(87 * AMU, 780e-9)
    assert er == pytest.approx(3.7e3, rel=0.02)


def test_recoil_frequency_rb_co2():
    # direct evaluation h / (2 M lambda^2) with scipy's constants
    expected = codata.h / (2 * 87 * codata.value("atomic mass constant") * (10.6e-6) ** 2)
    er = units.recoil_frequency(87 * AMU, 10.6e-6)
    assert er == pytest.approx(expected, rel=1e-9)
    assert er == pytest.approx(20.4, rel=1e-3)


def test_recoil_wavelength_scaling():
    m = 87 * AMU
    assert units.recoil_frequency(m, 2 * 780e-9) == pytest.approx(
        units.recoil_frequency(m, 780e-9) / 4, rel=1e-14
    )


def test_ground_state_size_table_values():
    a = units.ground_state_size(87 * AMU, 172e3)
    assert a / units.BOHR_RADIUS == pytest.approx(347, rel=0.01)
    a_blue = units.ground_state_size(87 * AMU, 982e3)
    assert a_blue / units.BOHR_RADIUS == pytest.approx(145, rel=0.01)


def test_ground_state_size_scaling():
    m, nu = 23 * AMU, 3.3e5
    base = units.ground_state_size(m, nu)
    assert units.ground_state_size(4 * m, nu) == pytest.approx(base / 2, rel=1e-14)
    assert units.ground_state_size(m, 4 * nu) == pytest.approx(base / 2, rel=1e-14)


@pytest.mark.parametrize(
    "mass_amu,wavelength,nu",
    [(87, 780e-9, 172e3), (6.9, 670e-9, 432e3), (133, 10.6e-6, 156e3), (39, 766e-9, 1.494e6)],
)
def test_lamb_dicke_identity(mass_amu, wavelength, nu):
    # eta = k a_osc = sqrt(E_R / nu) must hold to 1e-12 relative
    m = mass_amu * AMU
    eta_k = 2 * math.pi / wavelength * units.ground_state_size(m, nu)
    eta_er = math.sqrt(units.recoil_frequency(m, wavelength) / nu)
    assert eta_k == pytest.approx(eta_er, rel=1e-12)


@pytest.mark.parametrize("bad", [(0.0, 780e-9), (87 * AMU, 0.0), (-1e-26, 780e-9), (87 * AMU, -1e-9)])
def test_recoil_domain_errors(bad):
    with pytest.raises(DomainError):
        units.recoil_frequency(*bad)


def test_ground_state_size_domain_errors():
    with pytest.raises(DomainError):
        units.ground_state_size(-1.0, 1e5)
    with pytest.raises(DomainError):
        units.ground_state_size(87 * AMU, 0.0)
