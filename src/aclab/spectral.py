"""Hamiltonian assembly, dense symmetric eigendecomposition, and DOS checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .disorder import DisorderSpec
from .lattice import LatticeSpec, build_laplacian

RESIDUAL_TOL = 1e-10  # relative eigen residual / orthonormality
MASS_TOL = 1e-12      # histogram normalization
WEGNER_N_SIGMA = 3.0  # standard errors allowed above the Wegner bound


@dataclass(frozen=True)
class SpectralData:
    """Full eigensystem of one realization: ascending energies, orthonormal columns."""

    energies: np.ndarray
    vectors: np.ndarray
    site_count: int
    bounds: tuple[float, float] | None = None


@dataclass(frozen=True)
class DosHistogram:
    """Disorder-averaged normalized eigenvalue histogram with per-bin stderr."""

    bin_edges: np.ndarray
    mean_mass: np.ndarray
    stderr_mass: np.ndarray
    realizations: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def density(self) -> np.ndarray:
        return self.mean_mass / self.widths

    @property
    def density_stderr(self) -> np.ndarray:
        return self.stderr_mass / self.widths


@dataclass(frozen=True)
class WegnerReport:
    """Per-bin comparison of the averaged DOS density against rho_sup / lambda."""

    bound: float
    worst_margin: float
    worst_bin: int
    passed: bool
    density: np.ndarray = field(repr=False, default=None)
    allowance: np.ndarray = field(repr=False, default=None)


def build_hamiltonian(lattice: LatticeSpec, potential: np.ndarray,
                      laplacian: np.ndarray | None = None) -> np.ndarray:
    """H = kinetic + diag(potential); pass a prebuilt kinetic matrix to amortize."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (lattice.site_count,):
        raise ValueError(
            f"potential has shape {potential.shape}, expected ({lattice.site_count},)"
        )
    h = build_laplacian(lattice) if laplacian is None else laplacian.copy()
    h[np.diag_indices_from(h)] += potential
    return h


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic gauge: first component of magnitude > 1e-8 * colmax made positive real."""
    mags = np.abs(vectors)
    significant = mags > 1e-8 * mags.max(axis=0, keepdims=True)
    first = significant.argmax(axis=0)
    pivots = vectors[first, np.arange(vectors.shape[1])]
    if np.iscomplexobj(vectors):
        phases = pivots / np.abs(pivots)
        return vectors * phases.conj()[None, :]
    return vectors * np.sign(pivots)[None, :]


def eigendecompose(hamiltonian: np.ndarray,
                   bounds: tuple[float, float] | None = None) -> SpectralData:
    """Full dense eigensystem with ascending energies and a fixed sign gauge.

    Raises on non-Hermitian input, on eigensolver failure, on residual or
    orthonormality above RESIDUAL_TOL relative, and on energies escaping the
    supplied deterministic bounds.
    """
    h = np.asarray(hamiltonian)
    scale = max(np.abs(h).max(), 1.0)
    if not np.allclose(h, h.conj().T, atol=1e-12 * scale, rtol=0.0):
        raise ValueError("hamiltonian is not Hermitian")
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    vectors = _fix_eigenvector_signs(vectors)
    data = SpectralData(energies=energies, vectors=vectors,
                        site_count=h.shape[0], bounds=bounds)
    residual = np.abs(h @ vectors - vectors * energies[None, :]).max()
    if residual > RESIDUAL_TOL * scale:
        raise RuntimeError(f"eigen residual {residual:.3e} above {RESIDUAL_TOL:.0e} * scale")
    gram = vectors.conj().T @ vectors
    ortho = np.abs(gram - np.eye(h.shape[0])).max()
    if ortho > RESIDUAL_TOL:
        raise RuntimeError(f"orthonormality defect {ortho:.3e} above {RESIDUAL_TOL:.0e}")
    if bounds is not None:
        slack = 1e-10 * max(1.0, abs(bounds[0]), abs(bounds[1]))
        if energies[0] < bounds[0] - slack or energies[-1] > bounds[1] + slack:
            raise RuntimeError(
                f"energies [{energies[0]:.6g}, {energies[-1]:.6g}] escape "
                f"bounds [{bounds[0]:.6g}, {bounds[1]:.6g}]"
            )
    return data


def energy_bins(bounds: tuple[float, float], site_count: int,
                n_bins: int | None = None) -> np.ndarray:
    """Uniform bin edges over [E_-, E_+]; default count 2*ceil(sqrt(site_count))."""
    if n_bins is None:
        n_bins = 2 * int(np.ceil(np.sqrt(site_count)))
    return np.linspace(bounds[0], bounds[1], n_bins + 1)


def dos_histogram(batch: list[SpectralData], bin_edges: np.ndarray) -> DosHistogram:
    """Average the per-realization counting measures (each of total mass 1).

    Eigenvalues are clipped into the bin range within a 1e-9 slack: a clean
    spectrum saturates the deterministic bounds exactly and solver jitter
    must not push edge states out of the outermost bins.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)
    slack = 1e-9 * max(1.0, abs(bin_edges[0]), abs(bin_edges[-1]))
    per = []
    for data in batch:
        if data.bounds is not None:
            if bin_edges[0] > data.bounds[0] or bin_edges[-1] < data.bounds[1]:
                raise ValueError("bin_edges do not cover the spectral bounds")
        if (data.energies[0] < bin_edges[0] - slack
                or data.energies[-1] > bin_edges[-1] + slack):
            raise ValueError("bin_edges do not cover the realized spectrum")
        clipped = np.clip(data.energies, bin_edges[0], bin_edges[-1])
        counts, _ = np.histogram(clipped, bins=bin_edges)
        mass = counts / data.site_count
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise RuntimeError(f"histogram lost mass: total {total!r}")
        per.append(mass)
    per = np.array(per)
    n = len(batch)
    stderr = per.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(per.shape[1])
    return DosHistogram(bin_edges=bin_edges, mean_mass=per.mean(axis=0),
                        stderr_mass=stderr, realizations=n)


def wegner_check(dos: DosHistogram, spec: DisorderSpec) -> WegnerReport:
    """Check density <= rho_sup / lambda + WEGNER_N_SIGMA * stderr in every bin.

    The bound is on the disorder average; single realizations may exceed it.
    Vacuous at lambda = 0 (the clean kinetic spectrum is not flattened).
    """
    if spec.strength <= 0:
        raise ValueError("wegner_check requires lambda > 0")
    bound = spec.density_sup / spec.strength
    allowance = bound + WEGNER_N_SIGMA * dos.density_stderr
    margins = dos.density - allowance
    worst = int(np.argmax(margins))
    return WegnerReport(
        bound=bound,
        worst_margin=float(margins[worst]),
        worst_bin=worst,
        passed=bool(np.all(margins <= 0)),
        density=dos.density,
        allowance=allowance,
    )
