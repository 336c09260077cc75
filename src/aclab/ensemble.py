"""Disorder averaging and the parameter sweeps that expose the limit trends.

Every command, verify too, runs its realizations serially, in index order,
through ``_measured_blocks``: it joins their pair tables into blocks of
consecutive realizations (conductivity.join), measures each block in one
pass, and reduces the per-realization results in index order (fixed
floating-point association; documented tolerance 1e-12 on totals).  verify's
``each`` hook reads each whole record before its eigenvectors go.  Sweeps
share random numbers across grid points: the potential of realization i is
the same raw draw at every grid value, scaled by the local disorder strength.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conductivity import (
    MeasureHistogram,
    PairSpectrum,
    atom_mass,
    conductivity_measure,
    frequency_bins,
    gamma_mass,
    high_t_ceiling,
    join,
    pair_spectrum,
    psi_total,
    tables_per_block,
    upsilon_total,
)
from .disorder import DisorderSpec, sample_potential, spectral_bounds
from .lattice import LatticeSpec, velocity_norm2
from .spectral import SpectralData, eigendecompose
from .thermo import ThermoParams

SCALAR_KEYS = (
    "sigma_total",
    "atom_mass",
    "gamma_mass",
    "upsilon_total",
    "psi_total",
    "near_zero_mass",
    "near_zero_fraction",
)


@dataclass(frozen=True)
class Realization:
    """One disorder realization: its potential, eigensystem and velocity pair table."""

    potential: np.ndarray
    spectral: SpectralData
    pairs: PairSpectrum


@dataclass(frozen=True)
class BlockMeasures:
    """Conductivity measures of a block of realizations plus their scalar summaries, one per realization."""

    sigma: MeasureHistogram
    scalars: dict  # name -> array over the block's realizations


@dataclass(frozen=True)
class EnsembleResult:
    """Mean and unbiased standard error over N independent realizations."""

    bin_edges: np.ndarray
    realizations: int
    sigma_mean: np.ndarray
    sigma_stderr: np.ndarray
    atom_mean: float
    atom_stderr: float
    scalars: dict  # name -> (mean, stderr)


@dataclass
class SweepTable:
    """One row of scalar summaries per grid point, plus sweep-level findings."""

    axis: str
    grid: np.ndarray
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def column(self, key: str) -> np.ndarray:
        return np.array([row[key] for row in self.rows])


def realization_pair_spectrum(lattice: LatticeSpec, spec: DisorderSpec) -> Realization:
    """Sample one potential, diagonalize, and tabulate the velocity pairs.

    The one path from a disorder spec to an eigensystem: every command reads
    what it needs of a realization from the returned record.
    """
    potential = sample_potential(spec, lattice)
    data = eigendecompose(lattice, potential, bounds=spectral_bounds(spec, lattice))
    return Realization(potential=potential, spectral=data,
                       pairs=pair_spectrum(data, lattice))


def _measures_for(block: PairSpectrum, p: ThermoParams,
                  bin_edges: np.ndarray) -> BlockMeasures:
    sigma = conductivity_measure(block, p, bin_edges)
    near = sigma.near_zero_mass()
    total = sigma.total()
    scalars = {
        "sigma_total": total,
        "atom_mass": sigma.atom_at_zero,
        "gamma_mass": sigma.binned_total(),
        "upsilon_total": upsilon_total(block),
        "psi_total": psi_total(block),
        "near_zero_mass": near,
        "near_zero_fraction": np.divide(near, total, out=np.zeros_like(near),
                                        where=total > 0),
    }
    return BlockMeasures(sigma=sigma, scalars=scalars)


# threads is ignored; perfbench/layers.py wraps this function by name with three arguments.
def _map_indices(worker, n: int, threads: int) -> list:
    return [worker(i) for i in range(n)]


def _measured_blocks(lattice: LatticeSpec, spec: DisorderSpec, n: int, measure,
                     each=lambda i, record: None) -> list:
    """measure(block) of the realizations 0..n-1 of spec, in blocks of consecutive indices.

    each(i, record) sees realization i's whole record; then only its pair
    table stays, so the eigenvectors are released before any binning.  A block
    is measured and released once it holds tables_per_block tables, so a table
    too large to share a block is measured before the next eigensolve.
    """
    results, pending = [], []

    def flush():
        results.append(measure(join(pending)))
        pending.clear()

    def worker(i: int):
        record = realization_pair_spectrum(lattice, spec.with_index(i))
        each(i, record)
        pending.append(record.pairs)
        del record
        if len(pending) == tables_per_block(pending[0]):
            flush()

    _map_indices(worker, n, 1)
    if pending:
        flush()
    return results


def _mean_stderr(values: np.ndarray) -> tuple:
    n = len(values)
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, stderr


def _scalar_summary(results: list) -> dict:
    """SCALAR_KEYS -> (mean, stderr) over the realizations of every block, in key order."""
    out = {}
    for key in SCALAR_KEYS:
        mean, stderr = _mean_stderr(np.concatenate([r.scalars[key] for r in results]))
        out[key] = (float(mean), float(stderr))
    return out


def ensemble_average(spec: DisorderSpec, lattice: LatticeSpec, p: ThermoParams,
                     bin_edges: np.ndarray | None = None, n: int = 32) -> EnsembleResult:
    """Average the conductivity measure over realizations 0..n-1 of the stream."""
    if n < 2:
        raise ValueError("ensemble_average needs n >= 2 for a standard error")
    bounds = spectral_bounds(spec, lattice)
    if bin_edges is None:
        bin_edges = frequency_bins(bounds, lattice.site_count)
    results = _measured_blocks(lattice, spec, n,
                               lambda block: _measures_for(block, p, bin_edges))
    sigma_stack = np.concatenate([r.sigma.bin_mass for r in results])
    atom_stack = np.concatenate([r.sigma.atom_at_zero for r in results])
    sigma_mean, sigma_stderr = _mean_stderr(sigma_stack)
    atom_mean, atom_stderr = _mean_stderr(atom_stack)
    return EnsembleResult(
        bin_edges=np.asarray(bin_edges, dtype=float),
        realizations=n,
        sigma_mean=sigma_mean,
        sigma_stderr=sigma_stderr,
        atom_mean=float(atom_mean),
        atom_stderr=float(atom_stderr),
        scalars=_scalar_summary(results),
    )


def temperature_sweep(spec: DisorderSpec, lattice: LatticeSpec, fermi_level: float,
                      t_grid, n: int = 32) -> SweepTable:
    """Scalar summaries versus temperature, with the per-realization bounds enforced.

    Pair tables are computed once, joined into blocks, and each block is
    reduced to its totals at every grid point (common random numbers), read
    unbinned, before it is released.  At each T the per-realization
    inequalities Sigma(R) <= (pi/4T) ||v||_F^2 / |Lambda| and Gamma(R) > 0 are
    checked and their outcomes recorded per row, with ||v||_F^2 read from the
    lattice, not from the tables it bounds; envelope_mean is
    (pi/4) ||v||_F^2 / |Lambda|, the bound on T Sigma(R).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 1 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("temperature grid must be positive and strictly increasing")
    thermos = [ThermoParams(temperature=float(t), fermi_level=fermi_level) for t in t_grid]
    rows = _measured_blocks(lattice, spec, n, lambda block: np.array(
        [[gamma_mass(block, p), atom_mass(block, p)] for p in thermos]))
    totals = np.concatenate(rows, axis=-1)  # (temperature, gamma or atom, realization)
    norm2 = velocity_norm2(lattice) / lattice.site_count

    table = SweepTable(axis="temperature", grid=t_grid,
                       meta={"realizations": n, "fermi_level": fermi_level})
    for t_value, (gamma_tot, atom) in zip(t_grid, totals):
        sigma_tot = gamma_tot + atom
        s_mean, s_err = _mean_stderr(sigma_tot)
        g_mean, g_err = _mean_stderr(gamma_tot)
        table.rows.append({
            "temperature": float(t_value),
            "sigma_total_mean": float(s_mean),
            "sigma_total_stderr": float(s_err),
            "gamma_mass_mean": float(g_mean),
            "gamma_mass_stderr": float(g_err),
            "atom_mass_mean": float(np.mean(atom)),
            "t_times_sigma": float(t_value * s_mean),
            "envelope_mean": np.pi / 4.0 * norm2,
            "high_t_bound_ok": bool(np.all(sigma_tot <= high_t_ceiling(t_value, norm2))),
            "gamma_positive": bool(np.all(gamma_tot > 0.0)),
        })
    return table


def disorder_sweep(lattice: LatticeSpec, p: ThermoParams, lambda_grid,
                   base_spec: DisorderSpec, bin_edges: np.ndarray | None = None,
                   n: int = 32) -> SweepTable:
    """Scalar summaries versus disorder strength on a lambda-common bin grid.

    Raw draws are shared across grid points (only the scale changes), and the
    bins come from the largest strength in the grid so the near-zero window is
    the same at every point.  The log-log slope of the mean total mass over
    the positive grid points is reported, never asserted.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if len(lambda_grid) < 1 or np.any(lambda_grid < 0) or np.any(np.diff(lambda_grid) <= 0):
        raise ValueError("disorder grid must be nonnegative and strictly increasing")
    if p.temperature <= 0:
        raise ValueError("disorder sweep requires T > 0")
    top_bounds = spectral_bounds(base_spec.with_strength(float(lambda_grid[-1])), lattice)
    if bin_edges is None:
        bin_edges = frequency_bins(top_bounds, lattice.site_count)

    table = SweepTable(axis="disorder", grid=lambda_grid,
                       meta={"realizations": n, "temperature": p.temperature,
                             "fermi_level": p.fermi_level})
    for strength in lambda_grid:
        results = _measured_blocks(lattice, base_spec.with_strength(float(strength)), n,
                                   lambda block: _measures_for(block, p, bin_edges))
        row = {"strength": float(strength)}
        for key, (mean, stderr) in _scalar_summary(results).items():
            row[f"{key}_mean"] = mean
            row[f"{key}_stderr"] = stderr
        table.rows.append(row)

    positive = lambda_grid > 0
    totals = table.column("sigma_total_mean")[positive]
    if positive.sum() >= 2 and np.all(totals > 0):
        slope = np.polyfit(np.log(lambda_grid[positive]), np.log(totals), 1)[0]
        table.meta["loglog_slope"] = float(slope)
    return table
