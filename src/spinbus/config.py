"""Run configuration: one JSON file, checked whole at load; flags win.

Every section is optional; omitted keys take the architecture defaults
(Rb register in the CO2 lattice, the reference interaction geometry).
Section keys and their JSON types come from the field annotations of the
record each section builds, or from a map written out where a key carries a
unit its field does not (``geometry``, ``scattering``, ``mc``); ``geometry``
is the ``TrapGeometry`` of four widths, and ``scan`` passes each grid z0 to
the couplings.  Any unknown section or key, missing species key or value of
the wrong JSON type fails every command, so typos cannot silently fall back
to defaults, and every key that is accepted is read by some command.  The
header trap is described once, in ``scheduler``: the compiler's moves and
the ``transport`` command both read it.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError, DomainError
from .jsonio import checked_fields, key_text, loads_finite
from .record import Record
from .traps import SPECIES, AtomSpecies, BlueLatticeSpec, RedLatticeSpec, ScatteringParams, TrapGeometry
from .units import ATOMIC_MASS


class CompileParams(Record):
    """Physical knobs used by the compiler.

    Couplings are the effective Ising strengths (Hz) at the swap and gate
    working separations; the defaults are the exchange strength at zero
    separation and the dipole-only coupling at 1000 a0 for the default
    interaction geometry.  Trap frequency, mass and excitation budget
    describe the header's blue-lattice confinement for transport planning,
    by the compiler's moves and by the ``transport`` command.
    """

    j_swap_hz: float = 4.7227e4
    j_gate_hz: float = -882.5
    gate_separation_a0: float = 1000.0   # separation at which j_gate_hz is quoted
    onebit_time_s: float = 1.0e-5
    trap_frequency_hz: float = 982323.0
    mass_kg: float = 87.0 * ATOMIC_MASS
    p_budget: float = 1.0e-4
    swap_primitive: str = "heisenberg"   # heisenberg | xors
    single_bit_mode: str = "direct"      # direct | mediated
    max_move_duration_s: float | None = None

    def _check(self):
        if self.swap_primitive not in ("heisenberg", "xors"):
            raise DomainError(f"swap_primitive must be heisenberg|xors, got {self.swap_primitive!r}")
        if self.single_bit_mode not in ("direct", "mediated"):
            raise DomainError(f"single_bit_mode must be direct|mediated, got {self.single_bit_mode!r}")
        for name in ("gate_separation_a0", "trap_frequency_hz", "mass_kg"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0.0 < self.p_budget < 1.0:
            raise DomainError(f"p_budget must lie in (0, 1), got {self.p_budget!r}")
        if self.max_move_duration_s is not None and not self.max_move_duration_s > 0:
            raise DomainError(f"max_move_duration_s must be positive, got {self.max_move_duration_s!r}")
        if self.onebit_time_s < 0:
            raise DomainError(f"onebit_time_s must be >= 0, got {self.onebit_time_s!r}")


class Config:
    """Every section at its default; ``load_config`` applies a file over them."""

    def __init__(self):
        self.species: dict[str, AtomSpecies] = dict(SPECIES)
        self.red_lattice = RedLatticeSpec()
        self.blue_lattice = BlueLatticeSpec()
        self.geometry = TrapGeometry(a_qr=400.0, a_qz=400.0, a_hr=100.0, a_hz=100.0)
        self.scattering = ScatteringParams(a_t_a0=110.0, a_s_a0=10.0, mass_kg=87.0 * ATOMIC_MASS)
        self.mc_seed = 20260810
        self.mc_samples = 1_000_000
        self.compile_params = CompileParams()
        self.rates_hz = {"gamma_eff_blue": 0.6, "red_scattering": 1.0 / 120.0}


def _annotations(cls, **renamed) -> dict[str, str]:
    """``{JSON key: field annotation}`` of record ``cls``; ``renamed`` maps a
    field name to the key it is read under."""
    return {renamed.get(name, name): annotation for name, annotation in cls.__annotations__.items()}


_SPECIES = {k: v for k, v in _annotations(AtomSpecies).items() if k != "name"}  # each one required
_SECTIONS = {
    "red_lattice": _annotations(RedLatticeSpec),
    "blue_lattice": _annotations(BlueLatticeSpec),
    "geometry": {"a_qr_a0": "float", "a_qz_a0": "float", "a_hr_a0": "float", "a_hz_a0": "float"},
    "scattering": {"a_t_a0": "float", "a_s_a0": "float", "mass_amu": "float"},
    "mc": {"seed": "int", "samples": "int"},
    "scheduler": {**_annotations(CompileParams, mass_kg="mass_amu"), "rates_hz": "dict[str, float]"},
}


def load_config(path: str | Path | None) -> Config:
    cfg = Config()
    if path is None:
        return cfg
    try:
        doc = loads_finite(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    doc = checked_fields(dict.fromkeys(["species", *_SECTIONS], "dict"), doc, "config")
    for name, body in doc.pop("species", {}).items():
        body = checked_fields(_SPECIES, body, f"species.{key_text(name)}", _SPECIES)
        cfg.species[name] = AtomSpecies(name=name, **body)
    _apply(cfg, {section: checked_fields(_SECTIONS[section], body, section) for section, body in doc.items()})
    return cfg


def _kg(body: dict) -> dict:
    """``body`` with its ``mass_amu`` read as ``mass_kg``."""
    if "mass_amu" in body:
        body["mass_kg"] = body.pop("mass_amu") * ATOMIC_MASS
    return body


def _apply(cfg: Config, doc: dict):
    if "red_lattice" in doc:
        cfg.red_lattice = cfg.red_lattice.replace(**doc["red_lattice"])
    if "blue_lattice" in doc:
        cfg.blue_lattice = cfg.blue_lattice.replace(**doc["blue_lattice"])
    if "geometry" in doc:
        cfg.geometry = cfg.geometry.replace(**{k.removesuffix("_a0"): v for k, v in doc["geometry"].items()})
    if "scattering" in doc:
        cfg.scattering = cfg.scattering.replace(**_kg(doc["scattering"]))
    if "mc" in doc:
        from .interactions import check_mc_args  # loaded only for a config that has an mc section

        cfg.mc_seed = doc["mc"].get("seed", cfg.mc_seed)
        cfg.mc_samples = doc["mc"].get("samples", cfg.mc_samples)
        check_mc_args(cfg.mc_samples, cfg.mc_seed)
    if "scheduler" in doc:
        s = _kg(doc["scheduler"])
        cfg.rates_hz = s.pop("rates_hz", cfg.rates_hz)
        cfg.compile_params = cfg.compile_params.replace(**s)
