"""Command-line surface: sigma, verify, sweep, absorb.

Every command is a pure function of its JSON config (plus the --seed /
--out overrides), runs its realizations serially, writes write-once artifacts
into the output directory, prints one JSON line to stdout (the files it
wrote, or the error; verify adds its failed checks, and its per-check lines
go to stderr), and exits nonzero with a machine-readable JSON error on any
validation or invariant failure.  --threads is accepted and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, io
from .config import ConfigError, RunConfig
from .ensemble import disorder_sweep, ensemble_average, realization_pair_spectrum, \
    temperature_sweep
from .lattice import DIRICHLET
from .response import absorbed_energy_td
# Unused here; perfbench's tracer test checks that tracing patches this binding.
from .spectral import eigendecompose  # noqa: F401
from .verify import absorption_oracle, run_verify


def _fail(message: str, field: str | None = None, code: int = 2) -> int:
    payload = {"status": "error", "message": message}
    if field:
        payload["field"] = field
    print(json.dumps(payload))
    return code


def _load_config(args) -> RunConfig:
    config = config_mod.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(
            config, disorder=dataclasses.replace(config.disorder, seed=args.seed))
    if args.out is not None:
        config = dataclasses.replace(config, output={"directory": str(args.out)})
    return config


def cmd_sigma(config: RunConfig) -> int:
    result = ensemble_average(config.disorder, config.lattice, config.thermo,
                              bin_edges=config.frequency_edges(),
                              n=config.ensemble["realizations"])
    out = Path(config.output["directory"])
    io.write_measure_csv(out / "sigma.csv", result.bin_edges,
                         result.sigma_mean, result.sigma_stderr)
    io.write_json(out / "sigma.json", io.measure_header(
        config.to_dict(), "sigma",
        atom_at_zero=result.atom_mean,
        atom_stderr=result.atom_stderr,
        realizations=result.realizations,
        scalars={k: {"mean": v[0], "stderr": v[1]} for k, v in result.scalars.items()},
        code_version=__version__,
    ))
    print(json.dumps({"status": "ok",
                      "files": [str(out / "sigma.csv"), str(out / "sigma.json")]}))
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = run_verify(config)
    print("\n".join(report.lines()), file=sys.stderr)
    out = Path(config.output["directory"])
    io.write_json(out / "verify.json", io.measure_header(
        config.to_dict(), "verify", report=report.to_dict(),
        code_version=__version__))
    print(json.dumps({"status": "ok" if report.passed else "fail",
                      "files": [str(out / "verify.json")],
                      "failed": [c.name for c in report.checks if c.status == "fail"]}))
    return 0 if report.passed else 1


def cmd_sweep(config: RunConfig, axis: str) -> int:
    grid = getattr(config.sweeps, axis)
    if not grid:
        return _fail(f"config has no sweeps.{axis} grid", field=f"sweeps.{axis}")
    n = config.ensemble["realizations"]
    if axis == "temperature":
        config.frequency_edges()  # reads no bins, but refuses a nu_max as every command does
        table = temperature_sweep(config.disorder, config.lattice,
                                  config.thermo.fermi_level, grid, n=n)
    else:
        # one grid for every strength: the bounds of the largest one
        widest = dataclasses.replace(
            config, disorder=config.disorder.with_strength(max(grid)))
        table = disorder_sweep(config.lattice, config.thermo, grid, config.disorder,
                               bin_edges=widest.frequency_edges(), n=n)
    out = Path(config.output["directory"])
    io.write_sweep_csv(out / f"sweep_{axis}.csv", table)
    io.write_json(out / f"sweep_{axis}.json", io.measure_header(
        config.to_dict(), f"sweep_{axis}", meta=table.meta,
        assertions=_sweep_assertions(table), code_version=__version__))
    print(json.dumps({"status": "ok", "files": [str(out / f"sweep_{axis}.csv"),
                                                str(out / f"sweep_{axis}.json")]}))
    return 0


def _sweep_assertions(table) -> dict:
    if table.axis == "temperature":
        return {
            "high_t_bound_ok": bool(all(r["high_t_bound_ok"] for r in table.rows)),
            "gamma_positive": bool(all(r["gamma_positive"] for r in table.rows)),
            "sigma_decreasing": bool(np.all(np.diff(table.column("sigma_total_mean")) < 0)),
        }
    out = {"loglog_slope": table.meta.get("loglog_slope")}
    fractions = table.column("near_zero_fraction_mean")
    out["near_zero_fraction_monotone_down_in_lambda"] = bool(
        np.all(np.diff(fractions) <= 0))
    return out


def cmd_absorb(config: RunConfig) -> int:
    if config.pulse is None:
        return _fail("absorb requires a pulse section", field="pulse")
    if config.lattice.boundary != DIRICHLET:
        return _fail("time-domain absorption requires dirichlet boundary",
                     field="lattice.boundary")
    realization = realization_pair_spectrum(config.lattice, config.disorder.with_index(0))
    extraction, w_lr = absorption_oracle(config, realization)
    trace = extraction.traces[0]  # the largest alpha of the ladder
    routes = absorbed_energy_td(trace)

    out = Path(config.output["directory"])
    io.write_trace_csv(out / "trace.csv", trace)
    io.write_json(out / "absorb.json", io.measure_header(
        config.to_dict(), "absorb",
        w_current=routes.w_current,
        w_energy=routes.w_energy,
        route_gap=routes.gap,
        w_lin=extraction.w_lin,
        w_lr=w_lr,
        w_lin_vs_w_lr_rel=(extraction.w_lin - w_lr) / w_lr if w_lr else None,
        quadratic_ratios=list(extraction.ratios),
        fit_residual_rel=extraction.residual_rel,
        alphas=list(extraction.alphas),
        w_values=list(extraction.w_values),
        propagation={
            "steps": trace.meta["steps"],
            "dt": trace.dt,
            "eigh_block": trace.meta["eigh_block"],
            "trace_drift": [t.trace_drift for t in extraction.traces],
            "spectrum_drift": [t.spectrum_drift for t in extraction.traces],
        },
        code_version=__version__,
    ))
    print(json.dumps({"status": "ok", "files": [str(out / "trace.csv"),
                                                str(out / "absorb.json")]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aclab",
        description="Finite-volume conductivity-measure laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sigma", "ensemble-averaged conductivity measure"),
        ("verify", "run the full identity/inequality battery"),
        ("sweep", "temperature or disorder sweep"),
        ("absorb", "time-domain absorption against the measure route"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, required=True)
        cmd.add_argument("--out", type=Path, default=None,
                         help="override output.directory")
        cmd.add_argument("--threads", type=int, default=1,
                         help="no effect; every command runs serially")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override disorder.seed")
        if name == "sweep":
            cmd.add_argument("--axis", choices=["temperature", "disorder"],
                             required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "sigma":
            return cmd_sigma(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.axis)
        if args.command == "absorb":
            return cmd_absorb(config)
        return _fail(f"unknown command {args.command!r}")
    except ConfigError as exc:
        return _fail(str(exc), field=exc.field_path or None)
    except FileExistsError as exc:
        return _fail(str(exc))
    except (ValueError, RuntimeError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
