"""Command-line entry point.

Commands: ``tables``, ``scan``, ``gatecheck``, ``transport``, ``compile``,
``simulate``.  All commands are deterministic given the config file and
seed, and write byte-identical output on repeated runs.  Exit codes:
0 success, 1 validation failure, 2 numerical failure.

Each command imports the modules it uses when it runs.  Only ``scan --mode
mc``, ``gatecheck`` and, through the scheduler's simulation, ``simulate``
load numpy; ``tables``, ``transport``, ``compile`` and the quadrature
``scan`` start without it, and only ``compile`` and ``simulate`` load the
scheduler.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import traps
from .config import Config, load_config
from .errors import DomainError, NumericalError, SpinBusError
from .units import ATOMIC_MASS, BOHR_RADIUS

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON config file.")
@click.pass_context
def cli(ctx, config_path):
    """Simulator and compiler for the dual-lattice trapped-spin architecture."""
    ctx.obj = {"config_path": config_path}


def _cfg(ctx) -> Config:
    return load_config(ctx.obj["config_path"])


@cli.command()
@click.option("--lattice", type=click.Choice(["red", "blue"]), required=True)
@click.option("--species", "species_filter", default=None, help="Comma-separated species names.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def tables(ctx, lattice, species_filter, fmt, out):
    """Per-species trap parameter table for one lattice."""
    cfg = _cfg(ctx)
    names = [s.strip() for s in species_filter.split(",")] if species_filter else None
    reports = traps.lattice_reports(
        lattice, names, registry=cfg.species, red_spec=cfg.red_lattice, blue_spec=cfg.blue_lattice
    )
    _emit(traps.reports_csv(reports) if fmt == "csv" else traps.reports_json(reports), out)


def _point_dipole_hz(pref: float, z0_a0: float) -> float:
    """The point-dipole reference -2 gamma_e(z0) in Hz; a DomainError where
    (z0 a0)^3 leaves the float range."""
    try:
        value = -2.0 * pref / (z0_a0 * BOHR_RADIUS) ** 3
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"z0 = {z0_a0!r} a0 is out of range: the point-dipole reference is not a finite float")
    return value


@cli.command()
@click.option("--z0-min", type=float, required=True, help="Smallest separation, a0.")
@click.option("--z0-max", type=float, required=True)
@click.option("--points", type=int, required=True)
@click.option("--mode", type=click.Choice(["quadrature", "mc"]), default="quadrature")
@click.option("--gamma-mode", type=click.Choice(list(traps.GAMMA_MODES)), default="calibrated")
@click.option("--samples", type=int, default=None, help="MC samples per point (mc mode).")
@click.option("--seed", type=int, default=None)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def scan(ctx, z0_min, z0_max, points, mode, gamma_mode, samples, seed, out):
    """Coupling-strength scan over the trap separation.

    Columns: exchange, Gaussian-averaged dipolar, total, plus the point
    dipole reference -2 gamma_e(z0) (the asymptotic 1/z0^3 line).
    """
    from . import interactions

    cfg = _cfg(ctx)
    if points < 2:
        raise DomainError("need points >= 2")
    # numpy.linspace's arithmetic, so the grid is the same to the bit
    step = (z0_max - z0_min) / (points - 1)
    z0s = [i * step + z0_min for i in range(points - 1)] + [z0_max]
    bad = next((z for z in z0s if not z > 0), None)
    if bad is not None:
        raise DomainError(f"need every z0 > 0; the grid from {z0_min!r} to {z0_max!r} reaches {bad!r}")
    pref = interactions.gamma_prefactor_hz_m3(gamma_mode)
    point_dipole = [_point_dipole_hz(pref, z0) for z0 in z0s]
    rows = interactions.scan_couplings(
        cfg.geometry,
        cfg.scattering,
        z0s,
        gamma_mode=gamma_mode,
        mc_samples=(samples if samples is not None else cfg.mc_samples) if mode == "mc" else None,
        seed=seed if seed is not None else cfg.mc_seed,
    )
    for row, value in zip(rows, point_dipole):
        row["J_pointdipole_Hz"] = value
    _emit(interactions.scan_csv(rows, extra_fields=("J_pointdipole_Hz",)), out)


@cli.command()
@click.option("--tolerance", type=float, default=1.0 - 1e-9, help="Identity fidelity threshold.")
@click.option("--rwa-threshold", type=float, default=0.999, help="Required fidelity at the widest scan point.")
@click.option("--out", default=None, type=click.Path())
def gatecheck(tolerance, rwa_threshold, out):
    """Gate identity checks plus the stirring/RWA validity scan; fails nonzero
    if any identity fidelity drops below the threshold."""
    from . import gates as gatelib

    reports = [r.as_dict() for r in gatelib.gate_identity_reports()]
    scan_rows = gatelib.rwa_scan()
    doc = {
        "identities": reports,
        "rwa_scan": scan_rows,
        "tolerance": tolerance,
        "rwa_threshold": rwa_threshold,
    }
    ok = all(r["fidelity"] >= tolerance for r in reports) and scan_rows[0]["fidelity"] >= rwa_threshold
    doc["pass"] = ok
    _emit(_json_text(doc), out)
    if not ok:
        raise NumericalError("gate check failed the fidelity threshold")


@cli.command("transport")
@click.option("--distance-m", type=float, default=traps.CO2_WAVELENGTH_M / 2.0, show_default=True)
@click.option("--nu-trap-hz", type=float, default=None, help="Header trap frequency (default: config).")
@click.option("--mass-amu", type=float, default=None)
@click.option("--budget", type=float, default=None, help="Excitation probability budget.")
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def transport_cmd(ctx, distance_m, nu_trap_hz, mass_amu, budget, out):
    """Plan an adiabatic header translation and report the excitation numbers."""
    from . import transport

    cfg = _cfg(ctx)
    nu = nu_trap_hz if nu_trap_hz is not None else cfg.transport_nu_trap_hz
    mass = mass_amu * ATOMIC_MASS if mass_amu is not None else cfg.transport_mass_kg
    p_budget = budget if budget is not None else cfg.transport_p_budget
    _, result = transport.plan_transport(distance_m, 2.0 * math.pi * nu, mass, p_budget)
    _emit(_json_text(result.as_dict()), out)


@cli.command("compile")
@click.argument("circuit_file", type=click.Path(exists=True))
@click.option("--qubits", type=int, default=None, help="Register size (default: fit the circuit).")
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def compile_cmd(ctx, circuit_file, qubits, out):
    """Compile a circuit file into a timed schedule (JSON), with the
    decoherence budget attached."""
    from . import scheduler

    cfg = _cfg(ctx)
    circuit = scheduler.parse_circuit(_read_text(circuit_file))
    if qubits is None:
        qubits = max((q for g in circuit for q in g.qubits), default=0) + 1
    register = scheduler.Register(n_qubits=qubits)
    schedule = scheduler.compile_circuit(circuit, register, cfg.compile_params)
    budget = scheduler.budget(schedule, cfg.rates_hz)
    doc = json.loads(scheduler.schedule_to_json(schedule))
    doc["budget"] = budget.as_dict()
    _emit(_json_text(doc), out)


@cli.command("simulate")
@click.argument("schedule_file", type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
def simulate_cmd(schedule_file, out):
    """Re-simulate a compiled schedule and report fidelity to the logical
    circuit; exits 2 after writing the report if they do not match."""
    from . import scheduler

    schedule = scheduler.schedule_from_json(_read_text(schedule_file))
    report = scheduler.verify_schedule(schedule)
    _emit(_json_text(report), out)
    if not report["matches"]:
        raise NumericalError(f"schedule differs from the logical circuit by {report['max_norm_error']:.3e}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return EXIT_VALIDATION
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_VALIDATION
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL
    except (DomainError, SpinBusError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
