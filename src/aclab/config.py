"""Run configuration: one strict JSON document drives every command.

Unknown keys are rejected with the offending field path, since silent
misconfiguration is the main reproducibility hazard.  A run is a pure
function of its config; every output artifact embeds the config dict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .disorder import DisorderSpec
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
class RunConfig:
    lattice: LatticeSpec
    disorder: DisorderSpec
    thermo: ThermoParams
    realizations: int
    output_dir: str
    bins: BinSettings = field(default_factory=BinSettings)
    pulse: FieldPulse | None = None
    dynamics: DynamicsSettings = field(default_factory=DynamicsSettings)
    temperature_grid: tuple = ()
    disorder_grid: tuple = ()

    def to_dict(self) -> dict:
        payload = {
            "format_version": FORMAT_VERSION,
            "lattice": {
                "dimension": self.lattice.dimension,
                "linear_size": self.lattice.linear_size,
                "boundary": self.lattice.boundary,
            },
            "disorder": {
                "v_minus": self.disorder.v_minus,
                "v_plus": self.disorder.v_plus,
                "strength": self.disorder.strength,
                "seed": self.disorder.seed,
                "distribution": self.disorder.distribution,
            },
            "thermo": {
                "temperature": self.thermo.temperature,
                "fermi_level": self.thermo.fermi_level,
            },
            "bins": {
                "frequency_bins_per_side": self.bins.frequency_bins_per_side,
                "nu_max": self.bins.nu_max,
                "dos_bins": self.bins.dos_bins,
            },
            "ensemble": {"realizations": self.realizations},
            "sweeps": {
                "temperature": list(self.temperature_grid),
                "disorder": list(self.disorder_grid),
            },
            "dynamics": {
                "alphas": list(self.dynamics.alphas),
                "dt": self.dynamics.dt,
                "route_check_dt": self.dynamics.route_check_dt,
            },
            "output": {"directory": self.output_dir},
        }
        if self.pulse is not None:
            payload["pulse"] = {
                "amplitude": self.pulse.amplitude,
                "width": self.pulse.width,
                "carrier": self.pulse.carrier,
            }
        return payload


def _take(section: dict, path: str, allowed: dict) -> dict:
    """Pop known keys with defaults; reject anything unexpected."""
    unknown = set(section) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key {path}.{name}", field_path=f"{path}.{name}")
    return {key: section.get(key, default) for key, default in allowed.items()}


def _require(section: dict, path: str, keys: tuple):
    for key in keys:
        if key not in section or section[key] is None:
            raise ConfigError(f"missing required key {path}.{key}",
                              field_path=f"{path}.{key}")


def from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    top = _take(payload, "config", {
        "format_version": FORMAT_VERSION,
        "lattice": None, "disorder": None, "thermo": None, "bins": {},
        "ensemble": None, "sweeps": {}, "pulse": None, "dynamics": {},
        "output": None,
    })
    if top["format_version"] != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format_version {top['format_version']}",
            field_path="format_version",
        )
    for name in ("lattice", "disorder", "thermo", "ensemble", "output"):
        if top[name] is None:
            raise ConfigError(f"missing required section {name!r}", field_path=name)

    lat = _take(top["lattice"], "lattice",
                {"dimension": None, "linear_size": None, "boundary": "periodic"})
    _require(lat, "lattice", ("dimension", "linear_size"))
    dis = _take(top["disorder"], "disorder",
                {"v_minus": -1.0, "v_plus": 1.0, "strength": None, "seed": None,
                 "distribution": "uniform"})
    _require(dis, "disorder", ("strength", "seed"))
    thermo = _take(top["thermo"], "thermo",
                   {"temperature": None, "fermi_level": 0.0})
    _require(thermo, "thermo", ("temperature",))
    bins = _take(top["bins"], "bins",
                 {"frequency_bins_per_side": None, "nu_max": None, "dos_bins": None})
    ens = _take(top["ensemble"], "ensemble", {"realizations": None})
    _require(ens, "ensemble", ("realizations",))
    sweeps = _take(top["sweeps"], "sweeps", {"temperature": [], "disorder": []})
    dyn = _take(top["dynamics"], "dynamics", asdict(DynamicsSettings()))
    _require(dyn, "dynamics", ("route_check_dt",))
    out = _take(top["output"], "output", {"directory": None})
    _require(out, "output", ("directory",))

    def build(cls, path, **kwargs):
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {path}: {exc}", field_path=path) from exc

    pulse = None
    if top["pulse"] is not None:
        pls = _take(top["pulse"], "pulse",
                    {"amplitude": None, "width": None, "carrier": 0.0})
        _require(pls, "pulse", ("amplitude", "width"))
        pulse = build(FieldPulse, "pulse",
                      amplitude=float(pls["amplitude"]), width=float(pls["width"]),
                      carrier=float(pls["carrier"]))

    config = RunConfig(
        lattice=build(LatticeSpec, "lattice",
                      dimension=int(lat["dimension"]),
                      linear_size=int(lat["linear_size"]),
                      boundary=str(lat["boundary"])),
        disorder=build(DisorderSpec, "disorder",
                       v_minus=float(dis["v_minus"]), v_plus=float(dis["v_plus"]),
                       strength=float(dis["strength"]), seed=int(dis["seed"]),
                       distribution=str(dis["distribution"])),
        thermo=build(ThermoParams, "thermo",
                     temperature=float(thermo["temperature"]),
                     fermi_level=float(thermo["fermi_level"])),
        realizations=int(ens["realizations"]),
        output_dir=str(out["directory"]),
        bins=BinSettings(
            frequency_bins_per_side=(None if bins["frequency_bins_per_side"] is None
                                     else int(bins["frequency_bins_per_side"])),
            nu_max=None if bins["nu_max"] is None else float(bins["nu_max"]),
            dos_bins=None if bins["dos_bins"] is None else int(bins["dos_bins"]),
        ),
        pulse=pulse,
        dynamics=DynamicsSettings(
            alphas=tuple(float(a) for a in dyn["alphas"]),
            dt=None if dyn["dt"] is None else float(dyn["dt"]),
            route_check_dt=float(dyn["route_check_dt"]),
        ),
        temperature_grid=tuple(float(t) for t in sweeps["temperature"]),
        disorder_grid=tuple(float(v) for v in sweeps["disorder"]),
    )
    if config.realizations < 1:
        raise ConfigError("ensemble.realizations must be >= 1",
                          field_path="ensemble.realizations")
    return config


def load(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(payload)
