"""Run configuration: one JSON file, read by ``jsonio.read_text`` as every
input file is, and checked whole at load; flags win.

Every section is optional; omitted keys take the architecture defaults
(Rb register in the CO2 lattice, the reference interaction geometry).
Each section fills the ``Config`` attribute of its name: a record whose
field annotations give the section's keys and their JSON types.  A key
that carries a unit its field does not (trap widths in a0, masses in amu)
is mapped onto its field by one table, and a mass is checked in the amu
typed: one not positive is refused, one that underflows to 0 kg is a
numerical failure.  ``scheduler`` also holds the decoherence rates, each
>= 0.  The Monte Carlo seed and sample count are ``scan`` flags, not config
keys.  An unknown section or key, a missing species key, a species name
that ``--species`` cannot select or UTF-8 cannot encode, or a value of the
wrong JSON type fails every command, so typos cannot silently fall back to
defaults, and every accepted key is read by some command.  All sections
are type-checked before any is applied, in a fixed order, so a file with
several faults names the same one whatever its key order.  The header trap
is described once, in ``scheduler``: the compiler's moves and the
``transport`` command both read it.
"""

from __future__ import annotations

from .errors import DomainError
from .jsonio import checked_fields, key_text, loads_finite, read_text
from .record import Record
from .traps import SPECIES, AtomSpecies, BlueLatticeSpec, RedLatticeSpec, ScatteringParams, TrapGeometry
from .units import ATOMIC_MASS, amu_to_kg


class CompileParams(Record):
    """Physical knobs used by the compiler.

    Couplings are the effective Ising strengths (Hz, nonzero) at the swap and
    gate working separations; the defaults are the exchange strength at zero
    separation and the dipole-only coupling at 1000 a0 for the default
    interaction geometry.  The gate default, -882.5 Hz, is that coupling
    under a retired dipole constant 5.708 times ``GAMMA_E_A0_HZ``; the one
    constant in ``interactions`` gives -154.6 Hz there, and the compiler
    keeps -882.5 Hz until the coupling is derived.  The compiler refuses a
    coupling that times its pulse at 0 s or inf s.  No field prices the
    parked header's always-on coupling, which the compiler does not model.
    Trap frequency, mass and excitation budget describe the header's
    blue-lattice confinement for transport planning, by the compiler's moves
    and by the ``transport`` command.
    """

    j_swap_hz: float = 4.7227e4
    j_gate_hz: float = -882.5
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
        for name in ("j_swap_hz", "j_gate_hz"):  # a zero coupling realizes no pulse phase
            if getattr(self, name) == 0:
                raise DomainError(f"{name} must be nonzero, got {getattr(self, name)!r}")
        for name in ("trap_frequency_hz", "mass_kg"):
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
        self.scheduler = CompileParams()
        self.rates_hz = {"gamma_eff_blue": 0.6, "red_scattering": 1.0 / 120.0}


# the keys that carry a unit their record field does not: JSON key -> (field,
# converter into the field's unit, called with the value and its name; None
# where only the name differs)
_UNIT_KEYS = {
    **{f"{field}_a0": (field, None) for field in ("a_qr", "a_qz", "a_hr", "a_hz")},
    "mass_amu": ("mass_kg", amu_to_kg),
}
_JSON_KEYS = {field: key for key, (field, _) in _UNIT_KEYS.items()}


def _keys(record: type[Record]) -> dict[str, str]:
    """``{JSON key: field annotation}`` of ``record``."""
    return {_JSON_KEYS.get(name, name): annotation for name, annotation in record.__annotations__.items()}


_SPECIES = {k: v for k, v in _keys(AtomSpecies).items() if k != "name"}  # each one required
# each section's keys, in the order the sections are applied
_SECTIONS = {
    "red_lattice": _keys(RedLatticeSpec),
    "blue_lattice": _keys(BlueLatticeSpec),
    "geometry": _keys(TrapGeometry),
    "scattering": _keys(ScatteringParams),
    "scheduler": {**_keys(CompileParams), "rates_hz": "dict[str, float]"},
}


def load_config(path: str | None) -> Config:
    cfg = Config()
    if path is None:
        return cfg
    text = read_text(path)
    try:
        doc = loads_finite(text)
    except ValueError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from None
    doc = checked_fields(dict.fromkeys(["species", *_SECTIONS], "dict"), doc, "config")
    for name, body in doc.pop("species", {}).items():
        body = checked_fields(_SPECIES, body, f"species.{key_text(name)}", _SPECIES)
        if not name or "," in name or name != name.strip():  # --species could never select it
            raise DomainError(f'species name "{key_text(name)}" must be non-empty, without commas or outer whitespace')
        if any("\ud800" <= c <= "\udfff" for c in name):  # valid JSON, but no output could write it
            raise DomainError(f'species name "{key_text(name)}" holds an unpaired surrogate, which UTF-8 cannot encode')
        cfg.species[name] = AtomSpecies(name=name, **body)
    doc = {section: checked_fields(_SECTIONS[section], body, section) for section, body in doc.items()}
    for section in [s for s in _SECTIONS if s in doc]:
        fields = {}
        for key, value in doc[section].items():
            field, convert = _UNIT_KEYS.get(key, (key, None))
            fields[field] = value if convert is None else convert(value, f"{section}.{key}")
        cfg.rates_hz = fields.pop("rates_hz", cfg.rates_hz)  # a scheduler key beside its record
        setattr(cfg, section, getattr(cfg, section).replace(**fields))
    for source, rate in cfg.rates_hz.items():
        if rate < 0:
            raise DomainError(f"scheduler.rates_hz.{key_text(source)} must be >= 0, got {rate!r}")
    return cfg
