"""Hamiltonian assembly, dense symmetric eigendecomposition, and DOS checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec
from .lattice import PERIODIC, LatticeSpec

RESIDUAL_TOL = 1e-10  # relative eigen residual / orthonormality
MASS_TOL = 1e-12      # histogram normalization
WEGNER_N_SIGMA = 3.0  # standard errors allowed above the Wegner bound
BOUNDS_SLACK = 1e-10  # relative distance eigenvalues may lie past the deterministic bounds


@dataclass(frozen=True)
class SpectralData:
    """Full eigensystem of one realization: ascending energies, orthonormal columns."""

    energies: np.ndarray
    vectors: np.ndarray
    site_count: int
    bounds: tuple[float, float] | None = None
    residual: float | None = None        # observed max |H Q - Q Lambda|
    orthonormality: float | None = None  # observed max |Q^T Q - 1|


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
    passed: bool


def build_hamiltonian(lattice: LatticeSpec, potential: np.ndarray) -> np.ndarray:
    """H = kinetic + diag(potential), filled from the lattice's bond list."""
    potential = np.asarray(potential, dtype=float)
    n = lattice.site_count
    if potential.shape != (n,):
        raise ValueError(f"potential has shape {potential.shape}, expected ({n},)")
    index, values = lattice.bonds()
    h = np.zeros((n, n))
    flat = h.reshape(-1)  # a view
    flat[index] = values
    flat[::n + 1] += potential  # 0 + V, as on the kinetic matrix's zero diagonal
    return h


def subtract_hopping(lattice: LatticeSpec, out: np.ndarray, x: np.ndarray) -> None:
    """out -= sum_a (x[s + e_a] + x[s - e_a]) in place, that is out += kinetic @ x.

    Rows are sites in row-major order, so along axis a they reshape to
    (L^a, L, rest) and each neighbour is a slice of the middle index.  Periodic
    boxes wrap (an L=2 ring meets its one neighbour twice, as the bond list's
    doubled bond); dirichlet boxes drop the out-of-box neighbours.  Reshaping an
    out that is not C-contiguous would copy it and lose the subtraction.
    """
    if not out.flags.c_contiguous:
        raise ValueError("subtract_hopping needs a C-contiguous out")
    for axis in range(lattice.dimension):
        shape = (lattice.linear_size ** axis, lattice.linear_size, -1)
        res, q = out.reshape(shape), x.reshape(shape)
        res[:, :-1] -= q[:, 1:]
        res[:, 1:] -= q[:, :-1]
        if lattice.boundary == PERIODIC:
            res[:, -1] -= q[:, 0]
            res[:, 0] -= q[:, -1]


def eigendecompose(lattice: LatticeSpec, potential: np.ndarray,
                   bounds: tuple[float, float] | None = None) -> SpectralData:
    """Full dense eigensystem of H = kinetic + diag(potential), ascending.

    H is built, solved and dropped; the solve is checked against the lattice
    stencil rather than a dense H @ Q.  Raises on a non-finite potential, on
    eigensolver failure, on residual or orthonormality above RESIDUAL_TOL
    relative, and on energies escaping the supplied deterministic bounds.
    The observed residual and orthonormality defect are kept on the record.
    Column signs are left as eigh returns them: every consumer (|Q^T hop|^2,
    Q f Q^T, the residual, the Gram defect) is unchanged by negating a column.
    """
    potential = np.asarray(potential, dtype=float)
    h = build_hamiltonian(lattice, potential)
    if not np.isfinite(potential).all():
        raise ValueError("potential is not finite")
    # max |H|, read from the diagonal and the bond values rather than from H
    scale = max(np.abs(potential).max(), -lattice.bonds()[1].min(), 1.0)
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    del h
    r = potential[:, None] - energies[None, :]  # H Q - Q Lambda from the stencil
    r *= vectors
    subtract_hopping(lattice, r, vectors)
    residual = float(np.abs(r, out=r).max())
    if not residual <= RESIDUAL_TOL * scale:  # NaN fails too
        raise RuntimeError(f"eigen residual {residual:.3e} above {RESIDUAL_TOL:.0e} * scale")
    gram = vectors.T @ vectors
    gram.flat[::gram.shape[0] + 1] -= 1.0
    ortho = float(np.abs(gram, out=gram).max())
    if not ortho <= RESIDUAL_TOL:
        raise RuntimeError(f"orthonormality defect {ortho:.3e} above {RESIDUAL_TOL:.0e}")
    if bounds is not None:
        slack = BOUNDS_SLACK * max(1.0, abs(bounds[0]), abs(bounds[1]))
        if energies[0] < bounds[0] - slack or energies[-1] > bounds[1] + slack:
            raise RuntimeError(
                f"energies [{energies[0]:.6g}, {energies[-1]:.6g}] escape "
                f"bounds [{bounds[0]:.6g}, {bounds[1]:.6g}]"
            )
    return SpectralData(energies=energies, vectors=vectors, site_count=lattice.site_count,
                        bounds=bounds, residual=residual, orthonormality=ortho)


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
    return WegnerReport(
        bound=bound,
        worst_margin=float(margins.max()),
        passed=bool(np.all(margins <= 0)),
    )
