"""Velocity pair spectra and the finite-volume frequency measures built from them.

Per realization, the dissipative response is encoded by the eigenpair table
(nu_nm = E_n - E_m, |<n|v|m>|^2).  pair_spectrum forms |<n|v|m>|^2 as
|(Q^T hop)_nm|^2 with hop = Q[x + e1] - Q[x - e1], from the eigenvectors and
the lattice's neighbour shift (no velocity matrix), splits that table once,
at the degeneracy threshold eps_deg, and every measure reads the split:

- the pairs with nu > eps_deg as flat arrays in row-major (n, m) order:
  rows and cols (int32), nu and velocity_abs2.  Their partners (m, n) at -nu
  carry the same |v|^2 and are not stored.
- the ordered pairs with |nu| <= eps_deg, diagonal included, as
  degenerate_rows, degenerate_cols (int32) and degenerate_abs2.  They feed
  the zero-frequency atom and the diagonal measure.

No n x n array outlives pair_spectrum.  A PairSpectrum is a block: the
tables of k >= 1 realizations of one lattice and one set of bounds, back to
back, with rows and cols indexing the block's energies and pair_offsets and
degenerate_offsets marking where each realization's pairs begin.
pair_spectrum builds a block of one, and join concatenates consecutive
tables into a block of up to BLOCK_BYTES; a table larger than that stays a
block of one and shares its arrays.  The eigensolve stays per realization;
only the measures read blocks.

Every measure and total takes a block and returns one value, or one row of
bins, per realization.  Totals are .sum() over each realization's own slice,
and bins come from one bincount over (realization, bin), which adds each
bin's pairs in table order, so a realization's numbers do not change by a
bit when it shares a block.  A block keeps the bin index of the last
frequency grid it was binned on, for every measure on that grid to reuse.
Frequency histograms are symmetric grids about zero with the atom stored
outside the bin array; bins accumulate the stored pairs and are mirrored, so
evenness holds bit for bit.  Totals are read from the split unbinned
(gamma_mass, atom_mass, upsilon_total, psi_total), so a histogram is built
only where its bins are used.

Trace per unit volume is realized as Tr / site_count throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import LatticeSpec, PERIODIC
from .spectral import BOUNDS_SLACK, SpectralData, build_hamiltonian, energy_bins
from .thermo import ThermoParams, c_mu_t, fermi, fermi_derivative_neg, grand_potential, pair_weight

DEGENERACY_SCALE = 1e-10
CONVOLUTION_TOL = 1e-8     # direct against half-tanh thermal bins, relative
# Pair-table bytes joined into one block: a d=1 L=32 table is 12.5 kB, so a
# block holds 10 of them, and a block's join and measure temporaries stay
# well under 1 MB.
BLOCK_BYTES = 128 * 1024


def degeneracy_threshold(bounds: tuple[float, float]) -> float:
    """Eigenvalue pairs closer than this route to the zero-frequency atom."""
    return DEGENERACY_SCALE * (bounds[1] - bounds[0])


@dataclass(frozen=True)
class PairSpectrum:
    """Eigenpair tables of k >= 1 realizations split at eps_deg (see the module docstring).

    Realization r owns energies[r n : (r + 1) n], the pairs
    pair_offsets[r] : pair_offsets[r + 1] and the degenerate pairs
    degenerate_offsets[r] : degenerate_offsets[r + 1].
    """

    energies: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    nu: np.ndarray
    velocity_abs2: np.ndarray
    degenerate_rows: np.ndarray
    degenerate_cols: np.ndarray
    degenerate_abs2: np.ndarray
    site_count: int
    bounds: tuple[float, float]
    pair_offsets: np.ndarray
    degenerate_offsets: np.ndarray
    # the flat (realization, half bin) index of the last frequency grid binned
    _bin_index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def eps_deg(self) -> float:
        return degeneracy_threshold(self.bounds)

    @property
    def count(self) -> int:
        """Number of realizations in the block."""
        return len(self.pair_offsets) - 1

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.energies, self.rows, self.cols, self.nu, self.velocity_abs2,
            self.degenerate_rows, self.degenerate_cols, self.degenerate_abs2))


def tables_per_block(table: PairSpectrum) -> int:
    """How many tables of this size one block joins: as many as fit in BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // table.nbytes)


def join(tables: list) -> PairSpectrum:
    """One block of consecutive single-realization tables of one lattice and bounds.

    A block of one shares its table's arrays; only its bin index is its own,
    so that index is released with the block, not kept with the table.
    """
    first = tables[0]
    if len(tables) == 1:
        return replace(first)
    if any(t.count != 1 or t.site_count != first.site_count or t.bounds != first.bounds
           for t in tables):
        raise ValueError("a block joins single tables of one lattice and one set of bounds")
    n = first.site_count

    def shifted(name):  # index the block's energies; a Python int keeps int32
        return np.concatenate([getattr(t, name) + r * n for r, t in enumerate(tables)])

    def joined(name):
        return np.concatenate([getattr(t, name) for t in tables])

    return PairSpectrum(
        energies=joined("energies"),
        rows=shifted("rows"),
        cols=shifted("cols"),
        nu=joined("nu"),
        velocity_abs2=joined("velocity_abs2"),
        degenerate_rows=shifted("degenerate_rows"),
        degenerate_cols=shifted("degenerate_cols"),
        degenerate_abs2=joined("degenerate_abs2"),
        site_count=n,
        bounds=first.bounds,
        pair_offsets=np.cumsum([0] + [t.nu.size for t in tables]),
        degenerate_offsets=np.cumsum([0] + [t.degenerate_abs2.size for t in tables]),
    )


@dataclass
class MeasureHistogram:
    """Binned finite measures of the k realizations of a block, atoms stored apart.

    bin_mass holds one row of bins per realization and atom_at_zero one atom
    each.  Frequency measures use a symmetric grid with zero on a bin edge;
    the energy-axis variant (diagonal measure) reuses the container.  Every
    total is one value per realization.
    """

    bin_edges: np.ndarray
    bin_mass: np.ndarray
    atom_at_zero: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def binned_total(self) -> np.ndarray:
        return self.bin_mass.sum(axis=-1)

    def total(self) -> np.ndarray:
        return self.atom_at_zero + self.binned_total()

    def near_zero_mass(self) -> np.ndarray:
        """Atom plus the two bins adjacent to zero (collapse diagnostic)."""
        mid, odd = divmod(self.bin_mass.shape[-1], 2)
        if odd or self.bin_edges[mid] != 0.0:
            raise ValueError("histogram is not a symmetric frequency grid")
        return self.atom_at_zero + (self.bin_mass[..., mid - 1] + self.bin_mass[..., mid])


def frequency_bins(bounds: tuple[float, float], site_count: int,
                   bins_per_side: int | None = None,
                   nu_max: float | None = None) -> np.ndarray:
    """Symmetric frequency grid [-nu_max, nu_max] with zero on a bin edge.

    Default: nu_max = E_+ - E_- (the largest possible pair frequency) split
    into ceil(2 sqrt(site_count)) bins per side.
    """
    diameter = bounds[1] - bounds[0]
    if nu_max is None:
        nu_max = diameter
    if nu_max < diameter:
        raise ValueError(f"nu_max {nu_max} smaller than spectral diameter {diameter}")
    if bins_per_side is None:
        bins_per_side = int(np.ceil(2.0 * np.sqrt(site_count)))
    half = np.linspace(0.0, nu_max, bins_per_side + 1)
    return np.concatenate([-half[:0:-1], half])


def _shifted_rows(vectors: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row target[x] of vectors for every site x; an out-of-box target (-1) reads zeros."""
    rows = vectors[target]
    rows[target < 0] = 0.0
    return rows


def hop_rows(vectors: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Q[x + e1] - Q[x - e1] for every site x: i v applied to the columns of vectors."""
    hop = _shifted_rows(vectors, lattice.neighbor_shift(0, +1))
    hop -= _shifted_rows(vectors, lattice.neighbor_shift(0, -1))
    return hop


def _lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and cols (int32) of the strict lower triangle of an n x n table, row-major."""
    counts = np.arange(n, dtype=np.int32)
    rows = np.repeat(counts, counts)
    starts = np.repeat(counts * (counts - 1) // 2, counts)
    cols = np.arange(rows.size, dtype=np.int32)
    cols -= starts
    return rows, cols


def pair_spectrum(data: SpectralData, lattice: LatticeSpec) -> PairSpectrum:
    """Tabulate |<n|v|m>|^2 for all eigenpairs of one realization, split at eps_deg.

    (v phi)(x) = -i (phi(x + e1) - phi(x - e1)), so <n|v|m> = -i (Q^T hop)_nm.
    The energies ascend and fl(a - b) = -fl(b - a), so every pair of the
    strict lower triangle has nu >= 0, and a pair above the diagonal is
    degenerate exactly when its mirror is: both halves of the split come from
    the triangle.  The measures read the split; none compares a pair
    frequency with eps_deg again.  The result is a block of one.
    """
    q = data.vectors
    n = lattice.site_count
    if q.shape != (n, n):
        raise ValueError(f"eigenbasis shape {q.shape} does not match the "
                         f"lattice's {n} sites")
    e = data.energies
    bounds = data.bounds or (float(e[0]), float(e[-1]))
    eps = degeneracy_threshold(bounds)
    abs2 = q.T @ hop_rows(q, lattice)
    np.square(abs2, out=abs2)
    rows, cols = _lower_triangle(n)
    nu = e[rows] - e[cols]
    positive = nu > eps
    degenerate_rows = np.arange(n, dtype=np.int32)
    degenerate_cols = np.arange(n, dtype=np.int32)
    if not positive.all():
        low = ~positive
        if not (nu[low] >= 0.0).all():  # an out-of-order step fails nu > eps; NaN too
            raise ValueError("energies must ascend")
        low_rows, low_cols = rows[low], cols[low]
        rows, cols, nu = rows[positive], cols[positive], nu[positive]
        degenerate_rows = np.concatenate([low_rows, low_cols, degenerate_rows])
        degenerate_cols = np.concatenate([low_cols, low_rows, degenerate_cols])
        order = np.argsort(degenerate_rows.astype(np.int64) * n + degenerate_cols)
        degenerate_rows, degenerate_cols = degenerate_rows[order], degenerate_cols[order]
    return PairSpectrum(
        energies=e,
        rows=rows,
        cols=cols,
        nu=nu,
        velocity_abs2=abs2[rows, cols],
        degenerate_rows=degenerate_rows,
        degenerate_cols=degenerate_cols,
        degenerate_abs2=abs2[degenerate_rows, degenerate_cols],
        site_count=data.site_count,
        bounds=bounds,
        pair_offsets=np.array([0, nu.size]),
        degenerate_offsets=np.array([0, degenerate_rows.size]),
    )


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """.sum() of each realization's slice of values: a view, so a block changes no bit."""
    bounds = offsets.tolist()
    return np.array([values[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])


def _pair_mass(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    """(pi / site_count) |v|^2 pair_weight of the nu > eps_deg pairs, in table order."""
    weights = pair_weight(ps.energies, ps.cols, ps.rows, p)
    return (np.pi / ps.site_count) * ps.velocity_abs2 * weights


def _degenerate_mass(ps: PairSpectrum, values) -> np.ndarray:
    """(pi / site_count) sum of |v|^2 * values over each realization's degenerate pairs."""
    return np.pi / ps.site_count * _row_sums(ps.degenerate_abs2 * values,
                                             ps.degenerate_offsets)


def _tangent_atom(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    """Degenerate pairs at pair_weight's nu -> 0 limit: (-f)'(midpoint) at T > 0, 0 at T = 0."""
    if p.temperature == 0.0:
        return np.zeros(ps.count)
    e = ps.energies
    midpoints = 0.5 * (e[ps.degenerate_rows] + e[ps.degenerate_cols])
    return _degenerate_mass(ps, fermi_derivative_neg(midpoints, p))


def _zero_temperature_atom(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    # Gaussian-kernel estimate of the diagonal-measure density at mu.
    dos_width = (ps.bounds[1] - ps.bounds[0]) / (2 * int(np.ceil(np.sqrt(ps.site_count))))
    bandwidth = 4.0 * dos_width
    e = ps.energies
    midpoints = 0.5 * (e[ps.degenerate_rows] + e[ps.degenerate_cols])
    kernel = np.exp(-0.5 * ((midpoints - p.fermi_level) / bandwidth) ** 2)
    kernel /= bandwidth * np.sqrt(2.0 * np.pi)
    return _degenerate_mass(ps, kernel)


def gamma_mass(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    """Unbinned dissipative mass 2 (pi / site_count) sum |v|^2 w over the nu > eps_deg pairs.

    The factor 2 counts the mirrored nu < -eps_deg partners; a measure's
    binned_total() must reproduce it up to summation order.
    """
    return 2.0 * _row_sums(_pair_mass(ps, p), ps.pair_offsets)


def atom_mass(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    """Zero-frequency atom of the conductivity measure, fed by the degenerate pairs.

    For T > 0 it is the tangent atom, weight (-f)'(midpoint).  At T = 0 it is
    the smoothed diagonal-measure density at mu (bandwidth 4 DOS bin widths,
    an estimator choice), and the Fermi level must stay farther than eps_deg
    from every eigenvalue of the block: the measure is not defined on that
    exceptional set.
    """
    if p.temperature > 0.0:
        return _tangent_atom(ps, p)
    if np.abs(ps.energies - p.fermi_level).min() <= ps.eps_deg:
        raise ValueError(
            "T = 0 conductivity measure undefined: fermi_level within "
            "eps_deg of an eigenvalue"
        )
    return _zero_temperature_atom(ps, p)


def upsilon_total(ps: PairSpectrum) -> np.ndarray:
    """Total of upsilon_measure: 2 sum |v|^2 / site_count over the nu > eps_deg pairs."""
    return 2.0 * _row_sums(ps.velocity_abs2, ps.pair_offsets) / ps.site_count


def psi_total(ps: PairSpectrum) -> np.ndarray:
    """Total of psi_diagonal: (pi / site_count) sum |v|^2 over the degenerate pairs."""
    return _degenerate_mass(ps, 1.0)


def _bin_index(values: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """The bin np.histogram(values, bin_edges) puts each value in, by one searchsorted.

    Same bins: half-open [e_i, e_i+1) with the last one closed.  A value
    below the first edge gets -1, one above the last gets len(bin_edges) - 1.
    """
    if np.any(bin_edges[:-1] > bin_edges[1:]):
        raise ValueError("bin edges must increase monotonically")
    index = np.searchsorted(bin_edges, values, side="right") - 1
    index[values == bin_edges[-1]] = len(bin_edges) - 2
    return index


def _flat_index(index: np.ndarray, offsets: np.ndarray, n_bins: int) -> np.ndarray:
    """realization * n_bins + index, the (realization, bin) index of one bincount."""
    if len(offsets) > 2:
        index = index + n_bins * np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return index


def _bin_rows(flat_index: np.ndarray, weights: np.ndarray, rows: int,
              n_bins: int) -> np.ndarray:
    """One row of n_bins per realization; each bin adds its weights in input order."""
    return np.bincount(flat_index, weights, minlength=rows * n_bins).reshape(rows, n_bins)


def _half_index(nu: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Bin of each nu > eps_deg pair on the positive half of a symmetric frequency grid.

    Eigenvalues may lie up to BOUNDS_SLACK past each deterministic bound, so
    a frequency within twice that of the top edge goes into the last bin; the
    edges do not move.
    """
    n_bins = len(bin_edges) - 1
    if n_bins % 2 or bin_edges[n_bins // 2] != 0.0:
        raise ValueError("frequency bins must be symmetric with zero on an edge")
    top = bin_edges[-1]
    largest = nu.max(initial=0.0)
    if largest > top + 2.0 * BOUNDS_SLACK * max(1.0, top):
        raise ValueError(
            f"pair frequency {largest:.6g} beyond the bin range {top:.6g}; enlarge nu_max"
        )
    if largest > top:
        nu = np.minimum(nu, top)
    return _bin_index(nu, bin_edges[n_bins // 2:])


def _mirror_bin(ps: PairSpectrum, pair_mass: np.ndarray,
                bin_edges: np.ndarray) -> np.ndarray:
    """Bin each realization's nu > eps_deg pairs on the positive half and mirror.

    pair_mass must come from a mass symmetric in (n, m), so the mirrored copy
    equals the negative-frequency pairs exactly.  The block keeps the bin
    index of the last grid it was binned on, so the measures of one grid
    share one searchsorted.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)
    n_half = (len(bin_edges) - 1) // 2
    key = bin_edges.tobytes()
    index = ps._bin_index.get(key)
    if index is None:
        index = _flat_index(_half_index(ps.nu, bin_edges), ps.pair_offsets, n_half)
        ps._bin_index.clear()
        ps._bin_index[key] = index
    half = _bin_rows(index, pair_mass, ps.count, n_half)
    return np.concatenate([half[:, ::-1], half], axis=1)


def conductivity_measure(ps: PairSpectrum, p: ThermoParams,
                         bin_edges: np.ndarray) -> MeasureHistogram:
    """Finite-volume conductivity measure of each realization of the block.

    Off-degenerate pairs carry (pi / site_count) |v_nm|^2 w(E_n, E_m) at
    nu_nm, with w the Fermi difference quotient; the degenerate pairs feed
    atom_mass.
    """
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=_mirror_bin(ps, _pair_mass(ps, p), bin_edges),
        atom_at_zero=atom_mass(ps, p),
    )


def upsilon_measure(ps: PairSpectrum, bin_edges: np.ndarray) -> MeasureHistogram:
    """Temperature-independent velocity pair measure; no pi factor, no atom."""
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=_mirror_bin(ps, ps.velocity_abs2 / ps.site_count, bin_edges),
        atom_at_zero=np.zeros(ps.count),
    )


def psi_diagonal(ps: PairSpectrum, bin_edges: np.ndarray | None = None) -> MeasureHistogram:
    """Energy-resolved mass of the degenerate (zero-frequency) pairs.

    Lives on the energy axis: bin B collects (pi / site_count) |v_nm|^2 over
    degenerate pairs with E_n in B, and a level outside the edges is
    dropped.  Empty for simple spectra, since a real Hamiltonian has no
    diagonal velocity matrix elements.
    """
    if bin_edges is None:
        bin_edges = energy_bins(ps.bounds, ps.site_count)
    bin_edges = np.asarray(bin_edges, dtype=float)
    n_bins = len(bin_edges) - 1
    index = _bin_index(ps.energies[ps.degenerate_rows], bin_edges)
    mass = np.pi / ps.site_count * ps.degenerate_abs2
    inside = (index >= 0) & (index < n_bins)
    index = _flat_index(index, ps.degenerate_offsets, n_bins)
    return MeasureHistogram(
        bin_edges=bin_edges,
        bin_mass=_bin_rows(index[inside], mass[inside], ps.count, n_bins),
        atom_at_zero=np.zeros(ps.count),
    )


def sum_rule_lhs(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    """Left side of the total-mass identity per realization of a block: gamma_mass + tangent atom."""
    return gamma_mass(ps, p) + _tangent_atom(ps, p)


def sum_rule_rhs(data: SpectralData, lattice: LatticeSpec, p: ThermoParams) -> tuple:
    """Right side of the total-mass identity for one eigensystem, and its scale.

    The right side is
        2 pi (1/|Lambda|) sum_x Re <delta_{x+e1}, f(H) delta_x>
    (hopping amplitude -1), read as a sum over bands
    b_k = sum_x Q[x + e1, k] Q[x, k] weighted by f(E_k), and an out-of-box
    neighbour adds nothing.  The scale, the same sum of f(E_k) |b_k|, bounds
    the right side's rounding, which the left side's nonnegative terms do not
    need.  On open boxes the identity is exact per realization; on periodic
    ones it holds once twist_drift, the twist stiffness, is subtracted.
    """
    q = data.vectors
    band = np.einsum("xk,xk->k", _shifted_rows(q, lattice.neighbor_shift(0, +1)), q)
    f = fermi(data.energies, p)
    norm = 2.0 * np.pi / lattice.site_count
    return norm * float(band @ f), norm * float(np.abs(band) @ f)


def twist_drift(lattice: LatticeSpec, potential: np.ndarray, p: ThermoParams,
                tol: float) -> tuple[float | None, int]:
    """(pi / |Lambda|) Omega''(0) of one periodic realization, and the M it took.

    Omega(theta) = Tr G(H(theta)), G' = f, with every axis-0 hopping -e^{+-i theta};
    per realization sum_rule_lhs = sum_rule_rhs - (pi / |Lambda|) Omega''(0) (Kohn,
    Phys. Rev. 133, A171 (1964)).  On the seam bonds, from x at L - 1 to x + e1, the
    twist is phi = L theta, and Omega is even and 2 pi periodic in phi, so
    Omega''(0) = -L^2 sum_k k^2 c_k over its cosine coefficients at M phases, each
    from an eigenvalue-only solve of H(phi).  M doubles from 8 while the top term
    exceeds tol; past 64 the drift is None.  An open box is refused: the twist is a
    gauge there, and the drift 0.
    """
    if lattice.boundary != PERIODIC:
        raise ValueError("the twist stiffness needs a periodic boundary")
    size, h = lattice.linear_size, build_hamiltonian(lattice, potential)
    seam = np.flatnonzero(lattice.coordinates()[:, 0] == size - 1)
    across = lattice.neighbor_shift(0, +1)[seam]
    g0 = grand_potential(np.linalg.eigvalsh(h), p)

    def omega(phi: float) -> float:  # Omega(phi) - Omega(0), summed level by level
        twisted = h.astype(complex)
        twisted[across, seam] += 1.0 - np.exp(1j * phi)
        twisted[seam, across] += 1.0 - np.exp(-1j * phi)
        levels = np.linalg.eigvalsh(twisted.real if phi == np.pi else twisted)
        return float((grand_potential(levels, p) - g0).sum())

    values = np.array([0.0, omega(np.pi / 2), omega(np.pi)])
    for m in (8, 16, 32, 64):  # values[j] is at phi = 2 pi j / m, j = 0..m/2
        values = np.insert(values, range(1, len(values)),
                           [omega(2.0 * np.pi * j / m) for j in range(1, m // 2, 2)])
        cosines = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / m
        cosines[1:m // 2] *= 2.0
        terms = (np.pi * size ** 2 / lattice.site_count) * np.arange(m // 2 + 1) ** 2 * cosines
        if abs(terms[-1]) <= tol:
            return -float(terms.sum()), m
    return None, m


def high_t_ceiling(temperature, velocity_norm2):
    """Largest Sigma(R) allowed at T: (pi / 4T) velocity_norm2 plus a 1e-12 relative slack.

    velocity_norm2 is ||v||_F^2 / |Lambda|.  Every pair weight, and (-f)' on
    the atom, is at most 1/(4T), and the masses (pi / |Lambda|) |v_nm|^2 of
    all ordered pairs sum to pi Upsilon(R) + Psi(R) = pi ||v||_F^2 / |Lambda|.
    """
    envelope = np.pi / (4.0 * temperature) * velocity_norm2
    return envelope + 1e-12 * np.maximum(envelope, 1.0)


@dataclass(frozen=True)
class SandwichReport:
    """Per-bin check of (pi/4T) C Upsilon <= Gamma <= (pi/4T) Upsilon, one entry per realization."""

    worst_lower: np.ndarray  # smallest slack of each bound over the bins with Upsilon > 0,
    worst_upper: np.ndarray  # as a fraction of the envelope (pi/4T) Upsilon
    violations: np.ndarray
    passed: np.ndarray


def sandwich_check(sigma: MeasureHistogram, upsilon: MeasureHistogram,
                   p: ThermoParams, bounds: tuple[float, float]) -> SandwichReport:
    """Check the thermally scaled pair-measure bounds bin by bin, per realization.

    Gamma is sigma with its atom removed, i.e. exactly the bin array.  The
    additive tolerance is 1e-10 (pi/4T) Upsilon(R).  With C = c_mu_t the
    bounds hold for every realization because all eigenvalues lie inside the
    deterministic bounds.
    """
    if p.temperature <= 0:
        raise ValueError("sandwich_check requires T > 0")
    if not np.array_equal(sigma.bin_edges, upsilon.bin_edges):
        raise ValueError("sigma and upsilon histograms use different bins")
    prefactor = np.pi / (4.0 * p.temperature)
    c_value = c_mu_t(p, bounds)
    tol = (1e-10 * prefactor * upsilon.total())[:, None]
    gamma = sigma.bin_mass
    envelope = prefactor * upsilon.bin_mass
    lower = prefactor * c_value * upsilon.bin_mass - tol
    upper = envelope + tol
    violations = (gamma < lower).sum(axis=-1) + (gamma > upper).sum(axis=-1)
    held = envelope > 0.0
    ratio = np.divide(gamma, envelope, out=np.zeros_like(gamma), where=held)
    worst_lower = np.where(held, ratio - c_value, np.inf).min(axis=-1)
    worst_upper = np.where(held, 1.0 - ratio, np.inf).min(axis=-1)
    return SandwichReport(
        worst_lower=worst_lower,
        worst_upper=worst_upper,
        violations=violations,
        passed=violations == 0,
    )


@dataclass(frozen=True)
class ConvolutionReport:
    """Direct thermal bins against their exact sum over zero-temperature measures, per realization."""

    max_rel_gap: np.ndarray
    passed: np.ndarray


def convolution_check(ps: PairSpectrum, p: ThermoParams,
                      bin_edges: np.ndarray) -> ConvolutionReport:
    """Verify the thermal bins equal int dE (-f)'(E) x (T=0 bins at level E).

    The zero-temperature measure at level E holds pair (n, m), E_m < E_n, at
    weight 1 / nu exactly when E_m <= E < E_n.  So the integral gives each
    pair int (-f)' over [E_m, E_n] / nu, and (-f)' integrates to
    (tanh(x_n) - tanh(x_m)) / 2 with x = (E - mu) / 2T, an antiderivative
    written independently of thermo.fermi and pair_weight.  It is evaluated
    as 2 sinh(x_n - x_m) / (2 cosh x_m 2 cosh x_n) in logs, which neither
    cancels where both tanh are near +-1 nor overflows at small T, and the
    pairs are binned once.  Exact per realization, so the gap measures
    rounding only.
    """
    if p.temperature <= 0:
        raise ValueError("convolution_check requires T > 0")
    direct = conductivity_measure(ps, p, bin_edges).bin_mass
    x = (ps.energies - p.fermi_level) / (2.0 * p.temperature)
    log_2cosh = np.logaddexp(x, -x)
    step = ps.nu / (2.0 * p.temperature)  # x_n - x_m, > 0 on every stored pair
    log_2sinh = step + np.log(-np.expm1(-2.0 * step))
    half_tanh = np.exp(log_2sinh - log_2cosh[ps.cols] - log_2cosh[ps.rows])
    mass = np.pi / ps.site_count * ps.velocity_abs2 * half_tanh / ps.nu
    oracle = _mirror_bin(ps, mass, bin_edges)
    scale = np.maximum(direct.max(axis=-1, initial=0.0), 1e-300)
    max_rel = np.abs(direct - oracle).max(axis=-1, initial=0.0) / scale
    return ConvolutionReport(max_rel_gap=max_rel, passed=max_rel <= CONVOLUTION_TOL)
