"""Which aclab functions the traced run wraps, and the per-layer metrics.

Every public function of the layer modules gets a span named
``<module>.<function>``; ``numpy.linalg.eigh`` is the eigensolver boundary.
``ensemble._map_indices`` gets a custom wrapper that records the pool's wall
time and one ``ensemble.realization`` span per worker call, parented to the
pool span even when a worker thread runs it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics

from tracing import Tracer, percentile, self_times

LAYER_MODULES = ("spectral", "conductivity", "thermo", "disorder", "lattice",
                 "response", "ensemble", "verify", "io")
# io.fmt runs once per float written; a span per call would dwarf the write.
SKIP = {"io.fmt"}
VERIFY_CHECKS = ("velocity_position", "evenness", "positivity", "support",
                 "decomposition", "convolution", "sandwich", "high_t_bound",
                 "sum_rule", "wegner", "energy_routes", "oracle_energy")
# Counts that must repeat exactly between traced passes of the same code.
EXACT_COUNTS = ("spectral.eigensolves", "conductivity.pair_tables",
                "response.steps", "response.propagations",
                "lattice.operator_builds")
EIGH = "numpy.linalg.eigh"


def _pair_table_bytes(args, ps):
    return {"bytes": ps.energies.nbytes + ps.velocity_abs2.nbytes}


def _steps(args, trace):
    return {"steps": trace.meta["steps"]}


def _status(args, check):
    return {"status": check.status}


def _written(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _pool(original, tracer):
    def traced_map(worker, n, threads):
        pool = tracer.begin("ensemble.pool")

        def realization(i):
            span = tracer.begin("ensemble.realization", parent=pool.id)
            try:
                return worker(i)
            finally:
                tracer.end(span)

        try:
            return original(realization, n, threads)
        finally:
            tracer.end(pool, {"threads": max(int(threads), 1)})

    return traced_map


def make_tracer() -> Tracer:
    """A tracer over the imported aclab package; enter it to patch."""
    import numpy

    tracer = Tracer(packages=("aclab",))
    tracer.add(numpy.linalg, "eigh", EIGH)
    for short in LAYER_MODULES:
        module = importlib.import_module(f"aclab.{short}")
        for attr, value in vars(module).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            hook = None
            if name == "conductivity.pair_spectrum":
                hook = _pair_table_bytes
            elif name == "response.propagate_liouville":
                hook = _steps
            elif attr.startswith("check_"):
                hook = _status
            elif short == "io" and attr.startswith("write_"):
                hook = _written
            tracer.add(module, attr, name, result_attrs=hook)
    ensemble = importlib.import_module("aclab.ensemble")
    tracer.add(ensemble, "_map_indices", "ensemble.pool", factory=_pool)
    return tracer


def _ancestor(span, by_id, names):
    parent = by_id.get(span.parent)
    while parent is not None and parent.name not in names:
        parent = by_id.get(parent.parent)
    return parent


def pass_metrics(spans, realizations: int, verify_realizations: int) -> dict:
    """Per-layer metrics of one traced pass (units as in BENCHMARK.json)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in named.get(name, ()))

    def count(name):
        return len(named.get(name, ()))

    eigh_spectral, eigh_response = [], []
    for s in named.get(EIGH, ()):
        owner = _ancestor(s, by_id, {"spectral.eigendecompose",
                                     "response.propagate_liouville"})
        if owner is not None and owner.name == "spectral.eigendecompose":
            eigh_spectral.append(s.duration)
        elif owner is not None:
            eigh_response.append(s.duration)
    decomps = named.get("spectral.eigendecompose", ())
    decomps_in_verify = sum(
        1 for s in decomps if _ancestor(s, by_id, {"verify.run_verify"}) is not None)
    builds = [s for s in spans if s.name.startswith("lattice.build_")]
    io_writes = [s for s in spans if s.name.startswith("io.write_")
                 and not getattr(by_id.get(s.parent), "name", "").startswith("io.")]
    # A call that raised carries {"error": True} instead of its result's attributes.
    steps = sum(s.attrs.get("steps", 0) for s in named.get("response.propagate_liouville", ()))
    pools = named.get("ensemble.pool", ())
    realization_spans = named.get("ensemble.realization", ())
    pool_capacity = sum(s.duration * s.attrs["threads"] for s in pools)

    out = {
        "spectral.eigendecompose_s": total("spectral.eigendecompose"),
        "spectral.eigh_s": sum(eigh_spectral),
        "spectral.validate_s": sum(own[s.id] for s in decomps),
        "spectral.eigh_call_p99_us": 1e6 * percentile(eigh_spectral, 99),
        "spectral.eigensolves": count(EIGH),
        "spectral.eigensolves_per_realization": len(decomps) / realizations,
        "spectral.dos_histogram_s": total("spectral.dos_histogram"),
        "conductivity.pair_spectrum_s": total("conductivity.pair_spectrum"),
        "conductivity.pair_tables": count("conductivity.pair_spectrum"),
        "conductivity.pair_table_mb": max(
            (s.attrs.get("bytes", 0) for s in named.get("conductivity.pair_spectrum", ())),
            default=0) / 1e6,
        "conductivity.conductivity_measure_s": total("conductivity.conductivity_measure"),
        "conductivity.measures": count("conductivity.conductivity_measure"),
        "conductivity.upsilon_measure_s": total("conductivity.upsilon_measure"),
        "conductivity.psi_diagonal_s": total("conductivity.psi_diagonal"),
        "conductivity.convolution_check_s": total("conductivity.convolution_check"),
        "conductivity.sum_rule_mass_s": total("conductivity.sum_rule_mass"),
        "conductivity.sandwich_check_s": total("conductivity.sandwich_check"),
        "thermo.pair_weight_matrix_s": total("thermo.pair_weight_matrix"),
        "disorder.sample_potential_s": total("disorder.sample_potential"),
        "disorder.potentials": count("disorder.sample_potential"),
        "lattice.operator_builds": len(builds),
        "lattice.build_s": sum(s.duration for s in builds),
        "response.propagate_liouville_s": total("response.propagate_liouville"),
        "response.propagations": count("response.propagate_liouville"),
        "response.steps": steps,
        "response.step_us": 1e6 * total("response.propagate_liouville") / steps if steps else 0.0,
        "response.eigh_s": sum(eigh_response),
        "response.linear_response_extract_s": total("response.linear_response_extract"),
        "ensemble.ensemble_average_s": total("ensemble.ensemble_average"),
        "ensemble.temperature_sweep_s": total("ensemble.temperature_sweep"),
        "ensemble.disorder_sweep_s": total("ensemble.disorder_sweep"),
        "ensemble.realization_s": (statistics.median(s.duration for s in realization_spans)
                                   if realization_spans else 0.0),
        "ensemble.pool_busy_fraction": (sum(s.duration for s in realization_spans)
                                        / pool_capacity if pool_capacity else 0.0),
        "verify.eigensolves_per_realization": (decomps_in_verify / verify_realizations
                                               if verify_realizations else 0.0),
        "verify.failed_checks": sum(
            1 for s in spans if s.name.startswith("verify.check_")
            and s.attrs.get("status") == "fail"),
        "io.write_s": sum(s.duration for s in io_writes),
        "io.bytes_written": sum(s.attrs.get("bytes", 0) for s in io_writes),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = total(f"verify.check_{check}")
    return out
