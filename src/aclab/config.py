"""Run configuration: one strict JSON document drives every command.

A run is a pure function of its config; every output artifact embeds the
config dict.  SECTIONS is the config's only list of keys: for each section
it gives the type the section builds, a converter per key and the keys a
config must give.  `from_dict` and `RunConfig.to_dict` both read it, and
omitted keys take the defaults their type declares.  A null stands for an
omitted key or section only where that default is None (the `bins` keys,
`dynamics.dt` and the `pulse` section).  Anything else that is malformed
(a section that is not an object, an unknown, missing or null key, a
value its converter or type refuses) raises a ConfigError carrying the
offending field path, since silent misconfiguration is the main
reproducibility hazard.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .conductivity import frequency_bins
from .disorder import DisorderSpec, spectral_bounds
from .lattice import LatticeSpec
from .response import FieldPulse
from .thermo import ThermoParams

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown configuration content; carries the field path."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message)
        self.field_path = field_path


@dataclass(frozen=True)
class BinSettings:
    frequency_bins_per_side: int | None = None
    nu_max: float | None = None
    dos_bins: int | None = None


@dataclass(frozen=True)
class DynamicsSettings:
    alphas: tuple = (0.2, 0.1, 0.05, 0.025)
    dt: float | None = None
    route_check_dt: float = 2.5e-4


@dataclass(frozen=True)
class SweepGrids:
    temperature: tuple = ()
    disorder: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    lattice: LatticeSpec
    disorder: DisorderSpec
    thermo: ThermoParams
    ensemble: dict  # {"realizations": int}
    output: dict    # {"directory": str}
    bins: BinSettings = BinSettings()
    sweeps: SweepGrids = SweepGrids()
    pulse: FieldPulse | None = None
    dynamics: DynamicsSettings = DynamicsSettings()

    def frequency_edges(self) -> np.ndarray:
        """The frequency bin edges of this config's box, disorder law and bins section."""
        return frequency_bins(spectral_bounds(self.disorder, self.lattice),
                              self.lattice.site_count,
                              bins_per_side=self.bins.frequency_bins_per_side,
                              nu_max=self.bins.nu_max)

    def to_dict(self) -> dict:
        payload = {"format_version": FORMAT_VERSION}
        for name, (_, keys, _) in SECTIONS.items():
            section = getattr(self, name)
            if section is None:
                continue
            values = section if isinstance(section, dict) else vars(section)
            payload[name] = {key: _echo(values[key]) for key in keys}
        return payload


def _integer(value) -> int:
    """int(value), refusing booleans and fractional numbers rather than truncating them."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _count(value) -> int:
    count = _integer(value)
    if count < 1:
        raise ValueError(f"must be >= 1, got {count}")
    return count


def _number(value) -> float:
    """float(value) of a JSON number, refusing booleans and strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _step(value) -> float:
    """A time step: a finite JSON number > 0."""
    step = _number(value)
    if not 0.0 < step < np.inf:
        raise ValueError(f"must be a finite number > 0, got {step!r}")
    return step


def _floats(values) -> tuple:
    """A JSON array of numbers as a tuple of floats."""
    if not isinstance(values, list):
        raise ValueError(f"expected an array of numbers, got {values!r}")
    return tuple(_number(v) for v in values)


def _echo(value):
    return list(value) if isinstance(value, tuple) else value


# section: (type it builds, {key: converter}, keys a config must give)
SECTIONS = {
    "lattice": (LatticeSpec, {"dimension": _integer, "linear_size": _integer,
                              "boundary": str}, ("dimension", "linear_size")),
    "disorder": (DisorderSpec, {"v_minus": _number, "v_plus": _number, "strength": _number,
                                "seed": _integer},
                 ("strength", "seed")),
    "thermo": (ThermoParams, {"temperature": _number, "fermi_level": _number},
               ("temperature",)),
    "bins": (BinSettings, {"frequency_bins_per_side": _count, "nu_max": _number,
                           "dos_bins": _count}, ()),
    "ensemble": (dict, {"realizations": _count}, ("realizations",)),
    "sweeps": (SweepGrids, {"temperature": _floats, "disorder": _floats}, ()),
    "pulse": (FieldPulse, {"amplitude": _number, "width": _number, "carrier": _number},
              ("amplitude", "width")),
    "dynamics": (DynamicsSettings, {"alphas": _floats, "dt": _step,
                                    "route_check_dt": _step}, ()),
    "output": (dict, {"directory": str}, ("directory",)),
}


def _read(path: str, build, keys: dict, required: tuple, payload):
    """build(**converted keys) from one JSON object; `path` prefixes every field path."""
    if not isinstance(payload, dict):
        raise ConfigError(f"section {path} must be a JSON object", field_path=path)
    prefix = f"{path}." if path else ""
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}",
                          field_path=prefix + unknown[0])
    defaults = ({f.name: f.default for f in dataclasses.fields(build)}
                if dataclasses.is_dataclass(build) else {})
    kwargs = {}
    for key, convert in keys.items():
        field_path = prefix + key
        if key not in payload:
            if key in required:
                raise ConfigError(f"missing required key {field_path}", field_path=field_path)
            continue
        if payload[key] is None:
            if defaults.get(key, dataclasses.MISSING) is not None:
                raise ConfigError(f"{field_path} may not be null", field_path=field_path)
            continue
        try:
            kwargs[key] = convert(payload[key])
        except ConfigError:  # from a section's own _read, already naming its field
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {field_path}: {exc}", field_path=field_path) from exc
    try:
        return build(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path}: {exc}", field_path=path) from exc


def from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version}",
                          field_path="format_version")
    sections = {k: v for k, v in payload.items() if k != "format_version"}
    readers = {name: partial(_read, name, *section) for name, section in SECTIONS.items()}
    return _read("", RunConfig, readers,
                 ("lattice", "disorder", "thermo", "ensemble", "output"), sections)


def load(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(payload)
