"""Command-line entry point.

Commands: ``tables``, ``scan``, ``gatecheck``, ``transport``, ``compile``,
``simulate``; the global ``--config`` goes before the command and is loaded,
and so checked, before any command runs.  Input files are read through
``jsonio.read_text``.  The computing modules return data; ``_emit`` writes
every byte, as UTF-8 whatever the locale: results (JSON through ``dumps``,
CSV through ``_csv_text``) to stdout or ``--out``, ``--help`` to stdout and
failure lines to stderr.  All commands are deterministic given the config
file and seed, and write byte-identical output on repeated runs.  Exit
codes: 0 success (``--help`` included), 1 for a ``DomainError``, an input
refused (a usage error too, a NaN or infinite float flag, and a stdout or
file that cannot be written), 2 for a ``NumericalError``, computing from
accepted inputs failed.  A failure writes one line to stderr, ``error: ...``
for exit 1, ``numerical failure: ...`` for exit 2; a line that cannot be
written is dropped, and the exit code kept.  ``transport`` plans with the
compiler's header trap and move cap, so it fails a move as ``compile`` does.

The front end is the standard library's ``argparse``.  Each command imports
the modules it uses when it runs: only ``scan --mode mc`` and ``simulate``
(the scheduler's simulation) load numpy, and only ``compile`` and
``simulate`` the scheduler; ``gatecheck``'s 4 x 4 gate algebra runs on plain
complex numbers.

``main()`` serves the process's own command line (``python -m spinbus.cli``
and the ``spinbus`` script).  It first sets ``OMP_NUM_THREADS=1`` unless the
variable is set, so the BLAS that numpy's first import loads runs one
thread: OpenBLAS would start a busy-waiting worker per further CPU, which
takes a CPU from the Monte Carlo workers and speeds up none of the
package's small matrix products.  ``OPENBLAS_NUM_THREADS`` or
``MKL_NUM_THREADS``, read by the library itself, still win.  It ends with
``gc.freeze()`` whatever the exit code, so the interpreter's exit neither
collects nor frees what the command loaded: about 10 ms of each fresh
command, 25-35 ms of ``simulate`` and the Monte Carlo scan.
``main(argv)``, the in-process call, leaves ``os.environ`` alone (numpy is
usually loaded already) and keeps the ordinary exit: frozen objects are
never collected, and a freeze after each of 300 in-process ``transport``
calls grew peak RSS from 15.4 to 28.9 MB.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import math
import os
import sys
from pathlib import Path

from . import traps
from .config import Config, load_config
from .errors import DomainError, NumericalError, SpinBusError
from .jsonio import dumps, key_text, read_text
from .units import amu_to_kg

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _emit(text: str, out: str | None, failure: bool = False):
    """Write ``text`` as UTF-8, whatever the locale, to the file ``out`` or stdout,
    or as a failure line to stderr: backslash-escaped where UTF-8 cannot encode
    it, and dropped if unwritable.  An in-process text stream gets the text."""
    stream = sys.stderr if failure else sys.stdout
    try:
        if out:
            Path(out).write_bytes(text.encode())
        elif stream is None:  # the fd was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        elif hasattr(stream, "buffer"):
            stream.buffer.write(text.encode(errors="backslashreplace" if failure else "strict"))
            stream.buffer.flush()
        else:
            stream.write(text)
    except OSError as exc:
        if not out and stream is not None:  # drop the unwritten bytes, which the flush at exit would retry
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stream.fileno())
        if not failure:
            raise DomainError(f"cannot write {key_text(out) if out else 'stdout'}: {exc.strerror}") from None


def _csv_text(fields, rows: list[dict]) -> str:
    """A ``fields`` header, then each row's values in that order: floats as
    ``repr``, None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in map(row.get, fields)])
    return buf.getvalue()


def tables(args, cfg: Config):
    """Per-species trap parameter table for one lattice."""
    names = [s.strip() for s in args.species.split(",")] if args.species is not None else None
    if names and len(set(names)) < len(names):
        raise DomainError(f"--species names {key_text(next(n for n in names if names.count(n) > 1))} twice")
    spec = cfg.red_lattice if args.lattice == "red" else cfg.blue_lattice
    reports = traps.lattice_reports(spec, names, cfg.species)
    rows = [r.as_table_row() for r in reports]
    text = _csv_text(list(rows[0]), rows) if args.format == "csv" else dumps({r["species"]: r for r in rows})
    _emit(text, args.out)


# checked before the grid is built: every point is computed and held until written
MAX_SCAN_POINTS = 100_000
# the Monte Carlo scan's defaults; interactions.MAX_MC_SAMPLES caps --samples
MC_SAMPLES = 1_000_000
MC_SEED = 20260810


def scan(args, cfg: Config):
    """Coupling-strength scan over the trap separation.

    Columns: exchange, Gaussian-averaged dipolar, total, plus the point
    dipole reference -2 gamma_e(z0) (the asymptotic 1/z0^3 line).
    """
    from . import interactions

    z0_min, z0_max, points = args.z0_min, args.z0_max, args.points
    mc_flag = next((f for f, v in (("--samples", args.samples), ("--seed", args.seed)) if v is not None), None)
    if mc_flag and args.mode != "mc":  # the quadrature would ignore it
        raise DomainError(f"{mc_flag} applies to --mode mc only")
    if points < 2:
        raise DomainError(f"need points >= 2, got {points}")
    if points > MAX_SCAN_POINTS:
        raise DomainError(f"need points <= {MAX_SCAN_POINTS}, got {points}")
    # numpy.linspace's arithmetic, so the grid is the same to the bit
    step = (z0_max - z0_min) / (points - 1)
    z0s = [i * step + z0_min for i in range(points - 1)] + [z0_max]
    bad = next((z for z in z0s if not z > 0), None)
    if bad is not None:
        raise DomainError(f"need every z0 > 0; the grid from {z0_min!r} to {z0_max!r} reaches {bad!r}")
    rows = interactions.scan_couplings(
        cfg.geometry,
        cfg.scattering,
        z0s,
        mc_samples=(args.samples if args.samples is not None else MC_SAMPLES) if args.mode == "mc" else None,
        seed=args.seed if args.seed is not None else MC_SEED,
    )
    _emit(_csv_text(interactions.SCAN_COLUMNS, rows), args.out)


def gatecheck(args, cfg: Config):
    """Gate identity checks plus the stirring/RWA validity scan; fails nonzero
    if any identity fidelity drops below the threshold."""
    from . import gates as gatelib

    reports = [r.as_dict() for r in gatelib.gate_identity_reports()]
    scan_rows = gatelib.rwa_scan()
    doc = {
        "identities": reports,
        "rwa_scan": scan_rows,
        "tolerance": args.tolerance,
        "rwa_threshold": args.rwa_threshold,
    }
    ok = all(r["fidelity"] >= args.tolerance for r in reports) and scan_rows[0]["fidelity"] >= args.rwa_threshold
    doc["pass"] = ok
    _emit(dumps(doc), args.out)
    if not ok:
        raise NumericalError("gate check failed the fidelity threshold")


def transport_cmd(args, cfg: Config):
    """Plan an adiabatic header translation and report the excitation numbers."""
    from . import transport

    trap = cfg.scheduler  # the header trap and move cap the compiler's moves use
    if args.nu_trap_hz is not None and not args.nu_trap_hz > 0:
        raise DomainError(f"--nu-trap-hz must be positive, got {args.nu_trap_hz!r}")
    if args.distance_m < 0:
        raise DomainError(f"--distance-m must be >= 0, got {args.distance_m!r}")
    if args.budget is not None and not 0.0 < args.budget < 1.0:
        raise DomainError(f"--budget must lie in (0, 1), got {args.budget!r}")
    nu = args.nu_trap_hz if args.nu_trap_hz is not None else trap.trap_frequency_hz
    mass = amu_to_kg(args.mass_amu, "--mass-amu") if args.mass_amu is not None else trap.mass_kg
    p_budget = args.budget if args.budget is not None else trap.p_budget
    result = transport.plan_transport(args.distance_m, 2.0 * math.pi * nu, mass, p_budget, trap.max_move_duration_s)
    _emit(dumps(result.as_dict()), args.out)


def compile_cmd(args, cfg: Config):
    """Compile a circuit file into a timed schedule (JSON), with the
    decoherence budget attached."""
    from . import scheduler

    circuit = scheduler.parse_circuit(read_text(args.circuit_file))
    qubits = args.qubits
    if qubits is None:
        qubits = max((q for g in circuit for q in g.qubits), default=0) + 1
    register = scheduler.Register(n_qubits=qubits)
    schedule = scheduler.compile_circuit(circuit, register, cfg.scheduler)
    budget = scheduler.budget(schedule, cfg.rates_hz)
    _emit(dumps({**scheduler.schedule_doc(schedule), "budget": budget.as_dict()}), args.out)


def simulate_cmd(args, cfg: Config):
    """Re-simulate a compiled schedule and report fidelity to the logical
    circuit; exits 2 after writing the report if they do not match."""
    from . import scheduler

    schedule = scheduler.schedule_from_json(read_text(args.schedule_file))
    report = scheduler.verify_schedule(schedule)
    _emit(dumps(report), args.out)
    if not report["matches"]:
        raise NumericalError(f"schedule differs from the logical circuit by {report['max_norm_error']:.3e}")


def _finite_float(text: str) -> float:
    """A float option's value; NaN and the infinities are refused like a non-number."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")


def _fidelity_float(text: str) -> float:
    """A fidelity threshold: a finite float in [0, 1], the range of a fidelity."""
    if 0.0 <= (value := _finite_float(text)) <= 1.0:
        return value
    raise argparse.ArgumentTypeError(f"fidelity threshold outside [0, 1]: {text!r}")


class _Parser(argparse.ArgumentParser):
    # argparse writes nothing itself: --help goes out through _emit, a usage error is a validation failure
    def error(self, message):
        raise DomainError(message)

    def print_help(self, file=None):
        _emit(self.format_help(), None)


def _parser() -> tuple[argparse.ArgumentParser, set]:
    """The command-line parser, and the option strings that take a value (under
    every command that has them, so one set serves before and after the command)."""
    valued = set()

    def option(p, name, **kw):
        valued.add(name)
        p.add_argument(name, **kw)

    parser = _Parser(
        prog="spinbus",
        description="Simulator and compiler for the dual-lattice trapped-spin architecture.",
        allow_abbrev=False,
    )
    option(parser, "--config", help="JSON config file.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func):
        doc = func.__doc__ or ""  # None under python -OO
        p = commands.add_parser(name, help=doc.split("\n\n")[0], description=doc, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("tables", tables)
    option(p, "--lattice", choices=["red", "blue"], required=True)
    option(p, "--species", help="Comma-separated species names.")
    option(p, "--format", choices=["csv", "json"], default="csv")
    option(p, "--out")

    p = command("scan", scan)
    option(p, "--z0-min", type=_finite_float, required=True, help="Smallest separation, a0.")
    option(p, "--z0-max", type=_finite_float, required=True)
    option(p, "--points", type=int, required=True)
    option(p, "--mode", choices=["quadrature", "mc"], default="quadrature")
    option(p, "--samples", type=int, help=f"MC kernel evaluations per point, 1e4 to 1e9 (mc mode; default: {MC_SAMPLES}).")
    option(p, "--seed", type=int, help=f"Seed of the first point, each next point one more (mc mode; default: {MC_SEED}).")
    option(p, "--out")

    p = command("gatecheck", gatecheck)
    option(p, "--tolerance", type=_fidelity_float, default=1.0 - 1e-9, help="Identity fidelity threshold.")
    option(p, "--rwa-threshold", type=_fidelity_float, default=0.999, help="Required fidelity at the widest scan point.")
    option(p, "--out")

    p = command("transport", transport_cmd)
    option(p, "--distance-m", type=_finite_float, default=traps.CO2_WAVELENGTH_M / 2.0, help="(default: %(default)s)")
    option(p, "--nu-trap-hz", type=_finite_float, help="Header trap frequency, Hz (default: scheduler.trap_frequency_hz).")
    option(p, "--mass-amu", type=_finite_float, help="Header mass (default: scheduler.mass_amu).")
    option(p, "--budget", type=_finite_float, help="Excitation probability budget (default: scheduler.p_budget).")
    option(p, "--out")

    p = command("compile", compile_cmd)
    p.add_argument("circuit_file")
    option(p, "--qubits", type=int, help="Register size (default: fit the circuit).")
    option(p, "--out")

    p = command("simulate", simulate_cmd)
    p.add_argument("schedule_file")
    option(p, "--out")
    return parser, valued


def _attach_values(argv: list[str], valued: set) -> list[str]:
    """Join each ``--option value`` pair into ``--option=value``.

    An option's value is the next token whatever it looks like, as in
    ``--z0-min -1e-100`` or ``--tolerance -inf``; argparse would read those
    tokens as option strings, because its negative-number pattern has no
    exponent and no ``inf``.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in valued:
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        out.append(token)
    return out


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``argv=None`` serves the process's own command line, as ``python -m
    spinbus.cli`` and the ``spinbus`` script do.  numpy is not loaded yet,
    so ``OMP_NUM_THREADS`` defaults to 1 for the BLAS it will load.  The
    process exits next, so on every path (success, exit 1, exit 2,
    ``--help``) ``gc.freeze()`` moves what the command loaded out of the
    collector's reach, and the interpreter's exit skips collecting and
    freeing it.  An in-process caller passes ``argv``; its environment is
    left alone, and it keeps the ordinary exit, because a freeze after each
    call would keep that call's cyclic garbage for good.
    """
    own = argv is None
    if own:  # read by the BLAS that numpy's first import loads; OPENBLAS_/MKL_NUM_THREADS still win
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    parser, valued = _parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if own else list(argv), valued))
        args.func(args, load_config(args.config))
    except SystemExit as exc:  # argparse exits after --help
        return exc.code
    except (KeyboardInterrupt, SpinBusError) as exc:
        numerical = isinstance(exc, NumericalError)
        message = "interrupted" if isinstance(exc, KeyboardInterrupt) else exc
        _emit(f"{'numerical failure' if numerical else 'error'}: {message}\n", None, failure=True)
        return EXIT_NUMERICAL if numerical else EXIT_VALIDATION
    finally:
        if own:
            gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
