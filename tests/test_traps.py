import math

import pytest
from hypothesis import example, given, settings, strategies as st

from spinbus import traps
from spinbus.cli import main
from spinbus.errors import DomainError, NumericalError

# Printed reference rows.  Resolutions record the last printed digit so the
# comparison can allow for source rounding (Cs's E_R is printed to one
# significant figure, for example).
RED_TABLE = {
    #        V MHz  nu kHz a_osc  E_R kHz  eta0   eta_lat
    "Li": ((181.0, 1), (432.0, 1), (778.0, 1), (64.0, 1), (0.39, 0.01), (0.025, 0.001)),
    "Na": ((185.0, 1), (239.0, 1), (573.0, 1), (25.0, 1), (0.32, 0.01), (0.018, 0.001)),
    "K": ((334.0, 1), (247.0, 1), (433.0, 1), (8.7, 0.1), (0.19, 0.01), (0.014, 0.001)),
    "Rb": ((364.0, 1), (172.0, 1), (347.0, 1), (3.7, 0.1), (0.15, 0.01), (0.011, 0.001)),
    "Cs": ((458.0, 1), (156.0, 1), (295.0, 1), (2.0, 1), (0.11, 0.01), (0.009, 0.001)),
}
BLUE_TABLE = {
    #        nu kHz      a_osc a0    eta          gamma_eff Hz
    "Li": ((4061.0, 1), (254.0, 1), (0.13, 0.01), 2.5),
    "Na": ((2530.0, 1), (176.0, 1), (0.10, 0.01), 1.6),
    "K": ((1494.0, 1), (176.0, 1), (0.076, 0.001), 0.9),
    "Rb": ((982.0, 1), (145.0, 1), (0.06, 0.01), 0.6),
    "Cs": ((727.0, 1), (137.0, 1), (0.05, 0.01), 0.5),
}


def within(value, printed, resolution, rel):
    """Accept a relative miss or a miss inside the printed rounding step."""
    return abs(value - printed) <= max(rel * abs(printed), 0.5000001 * resolution)


@pytest.mark.parametrize("name", list(RED_TABLE))
def test_red_lattice_rows(name):
    r = traps.lattice_report(traps.SPECIES[name], traps.RedLatticeSpec())
    values = (
        r.v_max_hz / 1e6, r.nu_osc_hz / 1e3, r.a_osc_a0,
        r.recoil_resonance_hz / 1e3, r.eta0, r.eta_lattice,
    )
    for value, (printed, res) in zip(values, RED_TABLE[name]):
        assert within(value, printed, res, 0.03), (name, value, printed)


@pytest.mark.parametrize("name", list(BLUE_TABLE))
def test_blue_lattice_rows(name):
    r = traps.lattice_report(traps.SPECIES[name], traps.BlueLatticeSpec())
    nu, a, eta, geff = BLUE_TABLE[name]
    assert within(r.nu_osc_hz / 1e3, nu[0], nu[1], 0.05)
    assert within(r.a_osc_a0, a[0], a[1], 0.05)
    assert within(r.eta0, eta[0], eta[1], 0.05)
    assert r.gamma_eff_hz == pytest.approx(geff, rel=0.10)


def test_gamma_eff_caption_arithmetic():
    # direct evaluation of eta^2 (rabi^2 / 4 detuning^2) linewidth for Rb
    r = traps.lattice_report(traps.SPECIES["Rb"], traps.BlueLatticeSpec())
    expected = r.eta0**2 * (1.6e10**2 / (4 * (2e12) ** 2)) * 1e7
    assert r.gamma_eff_hz == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.58, rel=0.1)


@pytest.mark.parametrize("lattice", ["red", "blue"])
@pytest.mark.parametrize("name", list(RED_TABLE))
def test_caption_identity_exact(lattice, name):
    sp = traps.SPECIES[name]
    r = traps.lattice_report(sp, traps.RedLatticeSpec() if lattice == "red" else traps.BlueLatticeSpec())
    assert math.sqrt(r.recoil_lattice_hz / r.nu_osc_hz) == pytest.approx(r.eta_lattice, rel=1e-10)
    assert r.nu_osc_hz == pytest.approx(2 * math.sqrt(r.v_max_hz * r.recoil_lattice_hz), rel=1e-12)
    k = 2 * math.pi / (traps.CO2_WAVELENGTH_M if lattice == "red" else sp.lambda0_m)
    assert k * r.a_osc_m == pytest.approx(r.eta_lattice, rel=1e-10)


def test_depth_scaling_with_polarizability():
    base = traps.SPECIES["Rb"]
    doubled = traps.AtomSpecies("Rb2", base.mass_amu, 2 * base.alpha0_a03, base.lambda0_nm)
    r0 = traps.lattice_report(base, traps.RedLatticeSpec())
    r2 = traps.lattice_report(doubled, traps.RedLatticeSpec())
    assert r2.v_max_hz == pytest.approx(2 * r0.v_max_hz, rel=1e-12)
    assert r2.nu_osc_hz == pytest.approx(math.sqrt(2) * r0.nu_osc_hz, rel=1e-12)


def test_monotonic_with_mass():
    order = ["Li", "Na", "K", "Rb", "Cs"]
    red = [traps.lattice_report(traps.SPECIES[n], traps.RedLatticeSpec()) for n in order]
    blue = [traps.lattice_report(traps.SPECIES[n], traps.BlueLatticeSpec()) for n in order]
    for seq in (red, blue):
        ers = [r.recoil_resonance_hz for r in seq]
        etas = [r.eta0 for r in seq]
        assert ers == sorted(ers, reverse=True)
        assert etas == sorted(etas, reverse=True)


def test_first_principles_depth_discrepancy_surfaced():
    r = traps.lattice_report(traps.SPECIES["Li"], traps.RedLatticeSpec())
    # the stated intensity yields a ~24x shallower depth than the table
    assert r.v_max_hz / r.v_max_alt_hz == pytest.approx(24.3, rel=0.01)
    assert r.v_max_alt_hz == traps.RedLatticeSpec().first_principles_depth_hz(traps.SPECIES["Li"])


def test_fitted_calibration():
    spec = traps.RedLatticeSpec(depth_calibration_hz_per_a03=181e6 / traps.SPECIES["Li"].alpha0_a03)
    assert traps.lattice_report(traps.SPECIES["Li"], spec).v_max_hz == pytest.approx(181e6, rel=1e-12)


def test_blue_depth_convention_reported():
    spec = traps.BlueLatticeSpec()
    assert spec.effective_depth_hz == pytest.approx(2 * spec.quoted_depth_hz, rel=1e-12)
    r = traps.lattice_report(traps.SPECIES["Rb"], spec)
    assert r.v_max_alt_hz == pytest.approx(spec.quoted_depth_hz, rel=1e-12)


def test_unknown_species_rejected():
    with pytest.raises(DomainError):
        traps.get_species("Xx", traps.SPECIES)


def test_custom_registry():
    reg = dict(traps.SPECIES)
    reg["Fr"] = traps.AtomSpecies("Fr", 223.0, 317.8, 718.0)
    reports = traps.lattice_reports(traps.RedLatticeSpec(), ["Fr"], reg)
    assert reports[0].species == "Fr"
    cs = traps.lattice_report(traps.SPECIES["Cs"], traps.RedLatticeSpec())
    assert reports[0].recoil_resonance_hz < cs.recoil_resonance_hz


# log-uniform over the positive finite floats, subnormals included
_POSITIVE = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)
_RB = traps.SPECIES["Rb"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    species=st.builds(traps.AtomSpecies, st.just("X"), _POSITIVE, _POSITIVE, _POSITIVE),
    spec=st.builds(traps.RedLatticeSpec, _POSITIVE, _POSITIVE, _POSITIVE)
    | st.builds(traps.BlueLatticeSpec, _POSITIVE, _POSITIVE, _POSITIVE),
)
# a derived value that underflows to 0: the lattice recoil (so nu_osc), the mass, the resonance wavelength
@example(_RB, traps.RedLatticeSpec(wavelength_m=1e300))
@example(_RB.replace(mass_amu=1e-300), traps.RedLatticeSpec())
@example(_RB.replace(mass_amu=1e-300), traps.BlueLatticeSpec())
@example(_RB.replace(lambda0_nm=1e-320), traps.RedLatticeSpec())
@example(_RB.replace(lambda0_nm=1e-320), traps.BlueLatticeSpec())
@example(_RB.replace(lambda0_nm=1e300), traps.BlueLatticeSpec())
def test_lattice_report_is_finite_or_a_numerical_error(species, spec):
    try:
        report = traps.lattice_report(species, spec)
    except NumericalError as exc:
        assert str(exc) == f"trap report is not a finite float for {species!r}, {spec!r}"
        return
    assert report.lattice == spec.lattice
    assert all(math.isfinite(x) for x in vars(report).values() if isinstance(x, float))


def test_csv_and_json_emission(capsys):
    assert main(["tables", "--lattice", "blue"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("species,lattice,V_max_MHz")
    assert "gamma_eff_Hz" in lines[0]
    assert main(["tables", "--lattice", "blue", "--format", "json"]) == 0
    doc = capsys.readouterr().out
    assert '"Rb"' in doc and doc.endswith("\n")


def test_species_validation():
    with pytest.raises(DomainError):
        traps.AtomSpecies("bad", -1.0, 100.0, 700.0)


def test_scattering_mass_validation():
    # the config refuses a mass_amu that is not positive first; the record checks its own kg
    with pytest.raises(DomainError, match="scattering mass must be positive"):
        traps.ScatteringParams(a_t_a0=110.0, a_s_a0=10.0, mass_kg=0.0)
