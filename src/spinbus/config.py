"""Run configuration: one JSON file, validated strictly, flags win.

Every section is optional; omitted keys take the architecture defaults
(Rb register in the CO2 lattice, the reference interaction geometry).
Unknown sections or keys are rejected so typos cannot silently fall back
to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, DomainError
from .jsonio import loads_finite
from .traps import SPECIES, AtomSpecies, BlueLatticeSpec, RedLatticeSpec, ScatteringParams, TrapGeometry
from .units import ATOMIC_MASS

_SCHEMA: dict[str, tuple[str, ...]] = {
    "species": (),  # free-form: name -> {mass_amu, alpha0_a03, lambda0_nm, linewidth_hz}
    "red_lattice": ("wavelength_m", "intensity_w_cm2", "depth_calibration_hz_per_a03"),
    "blue_lattice": ("rabi_hz", "detuning_hz", "linewidth_hz"),
    "geometry": ("a_qr_a0", "a_qz_a0", "a_hr_a0", "a_hz_a0", "z0_a0"),
    "scattering": ("a_t_a0", "a_s_a0", "mass_amu", "nu_ref_hz"),
    "mc": ("seed", "samples"),
    "transport": ("nu_trap_hz", "mass_amu", "p_budget"),
    "scheduler": (
        "j_swap_hz",
        "j_gate_hz",
        "gate_separation_a0",
        "onebit_time_s",
        "trap_frequency_hz",
        "mass_amu",
        "p_budget",
        "swap_primitive",
        "single_bit_mode",
        "max_move_duration_s",
        "rates_hz",
    ),
}

_SPECIES_KEYS = ("mass_amu", "alpha0_a03", "lambda0_nm", "linewidth_hz")


@dataclass(frozen=True)
class CompileParams:
    """Physical knobs used by the compiler.

    Couplings are the effective Ising strengths (Hz) at the swap and gate
    working separations; the defaults are the exchange strength at zero
    separation and the dipole-only coupling at 1000 a0 for the default
    interaction geometry.  Trap frequency and mass describe the header's
    blue-lattice confinement for transport planning.
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

    def __post_init__(self):
        if self.swap_primitive not in ("heisenberg", "xors"):
            raise DomainError(f"swap_primitive must be heisenberg|xors, got {self.swap_primitive!r}")
        if self.single_bit_mode not in ("direct", "mediated"):
            raise DomainError(f"single_bit_mode must be direct|mediated, got {self.single_bit_mode!r}")


@dataclass
class Config:
    species: dict[str, AtomSpecies] = field(default_factory=lambda: dict(SPECIES))
    red_lattice: RedLatticeSpec = field(default_factory=RedLatticeSpec)
    blue_lattice: BlueLatticeSpec = field(default_factory=BlueLatticeSpec)
    geometry: TrapGeometry = field(
        default_factory=lambda: TrapGeometry(a_qr=400.0, a_qz=400.0, a_hr=100.0, a_hz=100.0, z0=1000.0)
    )
    scattering: ScatteringParams = field(
        default_factory=lambda: ScatteringParams(
            a_t_a0=110.0, a_s_a0=10.0, mass_kg=87.0 * ATOMIC_MASS, omega_ref=2.0 * math.pi * 172128.0
        )
    )
    mc_seed: int = 20260810
    mc_samples: int = 1_000_000
    transport_nu_trap_hz: float = 982323.0
    transport_mass_kg: float = 87.0 * ATOMIC_MASS
    transport_p_budget: float = 1.0e-4
    compile_params: CompileParams = field(default_factory=CompileParams)
    rates_hz: dict[str, float] = field(
        default_factory=lambda: {"gamma_eff_blue": 0.6, "red_scattering": 1.0 / 120.0}
    )


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
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")
    for section, keys in _SCHEMA.items():
        if section not in doc:
            continue
        body = doc[section]
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
        if keys:
            bad = set(body) - set(keys)
            if bad:
                raise ConfigError(f"unknown keys in {section!r}: {', '.join(sorted(bad))}")
    _apply(cfg, doc)
    return cfg


def _apply(cfg: Config, doc: dict):
    for name, body in doc.get("species", {}).items():
        bad = set(body) - set(_SPECIES_KEYS)
        if bad:
            raise ConfigError(f"unknown keys in species {name!r}: {', '.join(sorted(bad))}")
        missing = {"mass_amu", "alpha0_a03", "lambda0_nm"} - set(body)
        if missing:
            raise ConfigError(f"species {name!r} missing keys: {', '.join(sorted(missing))}")
        cfg.species[name] = AtomSpecies(name=name, **body)

    if "red_lattice" in doc:
        cfg.red_lattice = RedLatticeSpec(**doc["red_lattice"])
    if "blue_lattice" in doc:
        cfg.blue_lattice = BlueLatticeSpec(**doc["blue_lattice"])
    if "geometry" in doc:
        g = doc["geometry"]
        base = cfg.geometry
        cfg.geometry = TrapGeometry(
            a_qr=g.get("a_qr_a0", base.a_qr),
            a_qz=g.get("a_qz_a0", base.a_qz),
            a_hr=g.get("a_hr_a0", base.a_hr),
            a_hz=g.get("a_hz_a0", base.a_hz),
            z0=g.get("z0_a0", base.z0),
        )
    if "scattering" in doc:
        s = doc["scattering"]
        base = cfg.scattering
        cfg.scattering = ScatteringParams(
            a_t_a0=s.get("a_t_a0", base.a_t_a0),
            a_s_a0=s.get("a_s_a0", base.a_s_a0),
            mass_kg=s["mass_amu"] * ATOMIC_MASS if "mass_amu" in s else base.mass_kg,
            omega_ref=2.0 * math.pi * s["nu_ref_hz"] if "nu_ref_hz" in s else base.omega_ref,
        )
    if "mc" in doc:
        mc = doc["mc"]
        for key, value in mc.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"mc.{key} must be a JSON integer, got {json.dumps(value)}")
        cfg.mc_seed = mc.get("seed", cfg.mc_seed)
        cfg.mc_samples = mc.get("samples", cfg.mc_samples)
    if "transport" in doc:
        t = doc["transport"]
        cfg.transport_nu_trap_hz = t.get("nu_trap_hz", cfg.transport_nu_trap_hz)
        if "mass_amu" in t:
            cfg.transport_mass_kg = t["mass_amu"] * ATOMIC_MASS
        cfg.transport_p_budget = t.get("p_budget", cfg.transport_p_budget)
    if "scheduler" in doc:
        s = dict(doc["scheduler"])
        cfg.rates_hz = s.pop("rates_hz", cfg.rates_hz)
        if "mass_amu" in s:
            s["mass_kg"] = s.pop("mass_amu") * ATOMIC_MASS
        base = cfg.compile_params
        cfg.compile_params = CompileParams(
            **{
                **{k: getattr(base, k) for k in base.__dataclass_fields__},
                **s,
            }
        )
