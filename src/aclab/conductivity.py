"""Velocity pair spectra and the finite-volume frequency measures built from them.

Per realization, the dissipative response is encoded by the eigenpair table
(nu_nm = E_n - E_m, |<n|v|m>|^2).  pair_spectrum splits that table once, at
the degeneracy threshold eps_deg, and every measure reads the split:

- the pairs with nu > eps_deg as flat arrays in row-major (n, m) order:
  rows and cols (int32), nu and velocity_abs2.  Their partners (m, n) at -nu
  carry the same |v|^2 and are not stored.
- the ordered pairs with |nu| <= eps_deg, diagonal included, as
  degenerate_rows, degenerate_cols (int32) and degenerate_abs2.  They feed
  the zero-frequency atom and the diagonal measure.

No n x n array outlives pair_spectrum.  Frequency histograms are symmetric
grids about zero with the atom stored outside the bin array; bins accumulate
the stored pairs and are mirrored, so evenness holds bit for bit.

Trace per unit volume is realized as Tr / site_count throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, PERIODIC
from .spectral import SpectralData, energy_bins
from .thermo import ThermoParams, c_mu_t, fermi, fermi_derivative_neg, pair_weight

DEGENERACY_SCALE = 1e-10
EVEN_TOL = 1e-12           # negative bins against their mirror, relative to the largest bin
DECOMPOSITION_TOL = 1e-12  # binned against unbinned Gamma mass, relative
CONVOLUTION_TOL = 1e-8     # direct against quadrature thermal bins, relative


def degeneracy_threshold(bounds: tuple[float, float]) -> float:
    """Eigenvalue pairs closer than this route to the zero-frequency atom."""
    return DEGENERACY_SCALE * (bounds[1] - bounds[0])


@dataclass(frozen=True)
class PairSpectrum:
    """Eigenpair table of one realization, split at eps_deg (see the module docstring)."""

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

    @property
    def eps_deg(self) -> float:
        return degeneracy_threshold(self.bounds)


@dataclass
class MeasureHistogram:
    """Binned finite measure with a separately stored atom at zero.

    Frequency measures use a symmetric grid with zero on a bin edge; the
    energy-axis variant (diagonal measure) reuses the container with
    meta["axis"] == "energy".
    """

    bin_edges: np.ndarray
    bin_mass: np.ndarray
    atom_at_zero: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def binned_total(self) -> float:
        return float(self.bin_mass.sum())

    def total(self) -> float:
        return self.atom_at_zero + self.binned_total()

    def _check_symmetric(self):
        n = len(self.bin_mass)
        if n % 2 or self.bin_edges[n // 2] != 0.0:
            raise ValueError("histogram is not a symmetric frequency grid")

    def evenness_defect(self) -> float:
        """Max |mass(B) - mass(-B)| relative to the largest bin mass."""
        self._check_symmetric()
        scale = max(self.bin_mass.max(initial=0.0), 1e-300)
        return float(np.abs(self.bin_mass - self.bin_mass[::-1]).max() / scale)

    def mass_outside(self, diameter: float) -> float:
        """Total mass in bins lying entirely outside [-diameter, diameter]."""
        self._check_symmetric()
        outside = self.bin_edges[:-1] >= diameter
        return float(self.bin_mass[outside | outside[::-1]].sum())

    def near_zero_mass(self) -> float:
        """Atom plus the two bins adjacent to zero (collapse diagnostic)."""
        self._check_symmetric()
        mid = len(self.bin_mass) // 2
        return self.atom_at_zero + float(self.bin_mass[mid - 1] + self.bin_mass[mid])


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


def pair_spectrum(data: SpectralData, velocity: np.ndarray) -> PairSpectrum:
    """Tabulate |<n|v|m>|^2 for all eigenpairs of one realization, split at eps_deg.

    The measures read this split; none of them compares a pair frequency with
    eps_deg again.
    """
    if velocity.shape != data.vectors.shape:
        raise ValueError(
            f"velocity shape {velocity.shape} does not match eigenbasis "
            f"{data.vectors.shape}"
        )
    bounds = data.bounds or (float(data.energies[0]), float(data.energies[-1]))
    eps = degeneracy_threshold(bounds)
    abs2 = np.abs(data.vectors.conj().T @ velocity @ data.vectors) ** 2
    e = data.energies
    nu = e[:, None] - e[None, :]
    positive = nu > eps
    degenerate = np.abs(nu) <= eps
    rows, cols = np.nonzero(positive)
    degenerate_rows, degenerate_cols = np.nonzero(degenerate)
    return PairSpectrum(
        energies=e,
        rows=rows.astype(np.int32),
        cols=cols.astype(np.int32),
        nu=nu[positive],
        velocity_abs2=abs2[positive],
        degenerate_rows=degenerate_rows.astype(np.int32),
        degenerate_cols=degenerate_cols.astype(np.int32),
        degenerate_abs2=abs2[degenerate],
        site_count=data.site_count,
        bounds=bounds,
    )


def _pair_mass(ps: PairSpectrum, p: ThermoParams) -> np.ndarray:
    """(pi / site_count) |v|^2 w(E_n, E_m) of the nu > eps_deg pairs, in table order."""
    e = ps.energies
    weights = pair_weight(e[ps.rows], e[ps.cols], p, ps.eps_deg)
    return (np.pi / ps.site_count) * ps.velocity_abs2 * weights


def _degenerate_mass(ps: PairSpectrum, values: np.ndarray) -> float:
    """(pi / site_count) sum of |v|^2 * values over the degenerate pairs."""
    return np.pi / ps.site_count * float((ps.degenerate_abs2 * values).sum())


def _tangent_atom(ps: PairSpectrum, p: ThermoParams) -> float:
    """Degenerate pairs weighted by pair_weight: (-f)'(midpoint) at T > 0, 0 at T = 0."""
    e = ps.energies
    return _degenerate_mass(ps, pair_weight(e[ps.degenerate_rows], e[ps.degenerate_cols],
                                            p, ps.eps_deg))


def gamma_mass(ps: PairSpectrum, p: ThermoParams) -> float:
    """Unbinned dissipative mass 2 (pi / site_count) sum |v|^2 w over the nu > eps_deg pairs.

    The factor 2 counts the mirrored nu < -eps_deg partners; a measure's
    binned_total() must reproduce it up to summation order.
    """
    return 2.0 * float(_pair_mass(ps, p).sum())


def _mirror_bin(values: np.ndarray, pair_mass: np.ndarray,
                bin_edges: np.ndarray) -> np.ndarray:
    """Bin the nu > eps_deg pairs (frequencies values) on the positive half and mirror.

    pair_mass must come from a mass symmetric in (n, m), so the mirrored copy
    equals the negative-frequency pairs exactly.
    """
    n_bins = len(bin_edges) - 1
    if n_bins % 2 or bin_edges[n_bins // 2] != 0.0:
        raise ValueError("frequency bins must be symmetric with zero on an edge")
    if values.size and values.max() > bin_edges[-1]:
        raise ValueError(
            f"pair frequency {values.max():.6g} beyond the bin range "
            f"{bin_edges[-1]:.6g}; enlarge nu_max"
        )
    half_edges = bin_edges[n_bins // 2:]
    half, _ = np.histogram(values, bins=half_edges, weights=pair_mass)
    return np.concatenate([half[::-1], half])


def conductivity_measure(ps: PairSpectrum, p: ThermoParams,
                         bin_edges: np.ndarray) -> MeasureHistogram:
    """Finite-volume conductivity measure of one realization.

    Off-degenerate pairs carry (pi / site_count) |v_nm|^2 w(E_n, E_m) at
    nu_nm, with w the Fermi difference quotient.  Degenerate pairs feed the
    atom: weight (-f)'(midpoint) for T > 0; at T = 0 the atom is the
    smoothed diagonal-measure density at mu (bandwidth 4 DOS bin widths,
    an estimator choice).

    At T = 0 the Fermi level must stay farther than eps_deg from every
    eigenvalue; the measure is not defined on that exceptional set.
    """
    if p.temperature == 0.0:
        if np.abs(ps.energies - p.fermi_level).min() <= ps.eps_deg:
            raise ValueError(
                "T = 0 conductivity measure undefined: fermi_level within "
                "eps_deg of an eigenvalue"
            )
        atom = _zero_temperature_atom(ps, p)
    else:
        atom = _tangent_atom(ps, p)
    mass = _mirror_bin(ps.nu, _pair_mass(ps, p), bin_edges)
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=mass,
        atom_at_zero=atom,
        meta={"kind": "sigma", "temperature": p.temperature, "fermi_level": p.fermi_level},
    )


def _zero_temperature_atom(ps: PairSpectrum, p: ThermoParams) -> float:
    # Gaussian-kernel estimate of the diagonal-measure density at mu.
    dos_width = (ps.bounds[1] - ps.bounds[0]) / (2 * int(np.ceil(np.sqrt(ps.site_count))))
    bandwidth = 4.0 * dos_width
    e = ps.energies
    midpoints = 0.5 * (e[ps.degenerate_rows] + e[ps.degenerate_cols])
    kernel = np.exp(-0.5 * ((midpoints - p.fermi_level) / bandwidth) ** 2)
    kernel /= bandwidth * np.sqrt(2.0 * np.pi)
    return _degenerate_mass(ps, kernel)


def upsilon_measure(ps: PairSpectrum, bin_edges: np.ndarray) -> MeasureHistogram:
    """Temperature-independent velocity pair measure; no pi factor, no atom."""
    mass = _mirror_bin(ps.nu, ps.velocity_abs2 / ps.site_count, bin_edges)
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=mass,
        atom_at_zero=0.0,
        meta={"kind": "upsilon"},
    )


def psi_diagonal(ps: PairSpectrum, bin_edges: np.ndarray | None = None) -> MeasureHistogram:
    """Energy-resolved mass of the degenerate (zero-frequency) pairs.

    Lives on the energy axis: bin B collects (pi / site_count) |v_nm|^2 over
    degenerate pairs with E_n in B.  Empty for simple spectra, since a real
    Hamiltonian has no diagonal velocity matrix elements.
    """
    if bin_edges is None:
        bin_edges = energy_bins(ps.bounds, ps.site_count)
    mass, _ = np.histogram(
        ps.energies[ps.degenerate_rows],
        bins=bin_edges,
        weights=np.pi / ps.site_count * ps.degenerate_abs2,
    )
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=mass,
        atom_at_zero=0.0,
        meta={"kind": "psi", "axis": "energy"},
    )


@dataclass(frozen=True)
class SumRuleReport:
    """Ensemble comparison of total measure mass against the hopping trace."""

    lhs_mean: float
    rhs_mean: float
    gap_mean: float
    lhs_stderr: float
    rhs_stderr: float
    gap_stderr_paired: float
    gap_stderr_combined: float
    realizations: int

    @property
    def gap(self) -> float:
        return self.gap_mean


def sum_rule_mass(records: list, lattice: LatticeSpec, p: ThermoParams) -> SumRuleReport:
    """Compare ensemble-mean total mass with 2 pi <f(H)_{x+e1,x}> site-averaged.

    records are realizations from ensemble.realization_pair_spectrum: the
    left side is each one's gamma_mass plus its tangent atom, the right side
    reads its eigensystem.
    With hopping amplitude -1 the identity reads
        Sigma(R) = +2 pi (1/|Lambda|) sum_x Re <delta_{x+e1}, f(H) delta_x>,
    exact per realization up to wrap-around corrections that vanish rapidly
    with L.  Needs the periodic box; translation covariance has no dirichlet
    analogue.
    """
    if lattice.boundary != PERIODIC:
        raise ValueError("sum rule requires periodic boundary")
    forward = lattice.neighbor_shift(0, +1)
    cols = np.arange(lattice.site_count)
    lhs, rhs = [], []
    for record in records:
        ps, data = record.pairs, record.spectral
        lhs.append(gamma_mass(ps, p) + _tangent_atom(ps, p))
        f_h = (data.vectors * fermi(data.energies, p)) @ data.vectors.conj().T
        rhs.append(2.0 * np.pi * float(np.mean(f_h[forward, cols].real)))
    lhs = np.array(lhs)
    rhs = np.array(rhs)
    gap = lhs - rhs
    n = len(records)
    if n < 2:
        raise ValueError("sum rule needs at least 2 realizations for a stderr")
    root_n = np.sqrt(n)
    se_l = lhs.std(ddof=1) / root_n
    se_r = rhs.std(ddof=1) / root_n
    return SumRuleReport(
        lhs_mean=float(lhs.mean()),
        rhs_mean=float(rhs.mean()),
        gap_mean=float(gap.mean()),
        lhs_stderr=float(se_l),
        rhs_stderr=float(se_r),
        gap_stderr_paired=float(gap.std(ddof=1) / root_n),
        gap_stderr_combined=float(np.hypot(se_l, se_r)),
        realizations=n,
    )


@dataclass(frozen=True)
class SandwichReport:
    """Per-bin check of (pi/4T) C Upsilon <= Gamma <= (pi/4T) Upsilon."""

    convention: int
    c_value: float
    tolerance: float
    worst_lower: float
    worst_upper: float
    violations: int
    passed: bool


def sandwich_check(sigma: MeasureHistogram, upsilon: MeasureHistogram,
                   p: ThermoParams, bounds: tuple[float, float],
                   convention: int = 2) -> SandwichReport:
    """Check the thermally scaled pair-measure bounds bin by bin.

    Gamma is sigma with its atom removed, i.e. exactly the bin array.  The
    additive tolerance is 1e-10 (pi/4T) Upsilon(R).  With convention 2 the
    bounds hold for every realization because all eigenvalues lie inside the
    deterministic bounds.
    """
    if p.temperature <= 0:
        raise ValueError("sandwich_check requires T > 0")
    if not np.array_equal(sigma.bin_edges, upsilon.bin_edges):
        raise ValueError("sigma and upsilon histograms use different bins")
    prefactor = np.pi / (4.0 * p.temperature)
    c_value = c_mu_t(p, bounds, convention)
    tol = 1e-10 * prefactor * upsilon.total()
    gamma = sigma.bin_mass
    lower = prefactor * c_value * upsilon.bin_mass - tol
    upper = prefactor * upsilon.bin_mass + tol
    worst_lower = float((gamma - lower).min())
    worst_upper = float((upper - gamma).min())
    violations = int(np.sum(gamma < lower) + np.sum(gamma > upper))
    return SandwichReport(
        convention=convention,
        c_value=float(c_value),
        tolerance=float(tol),
        worst_lower=worst_lower,
        worst_upper=worst_upper,
        violations=violations,
        passed=violations == 0,
    )


@dataclass(frozen=True)
class ConvolutionReport:
    """Direct thermal bins against the quadrature over zero-temperature measures."""

    max_abs_gap: float
    max_rel_gap: float
    scale: float
    quad_error: float
    passed: bool


def convolution_check(ps: PairSpectrum, p: ThermoParams,
                      bin_edges: np.ndarray) -> ConvolutionReport:
    """Verify the thermal bins equal int dE (-f)'(E) x (T=0 bins at level E).

    The integrand is evaluated by re-binning the zero-temperature measure at
    each quadrature node; eigenvalues are supplied as breakpoints since the
    node measure jumps there.  Exact per realization, so the gap measures
    quadrature error only.
    """
    if p.temperature <= 0:
        raise ValueError("convolution_check requires T > 0")
    from scipy.integrate import quad_vec  # slow to import, and needed only here

    direct = conductivity_measure(ps, p, bin_edges).bin_mass
    energies = ps.energies
    scaled = np.pi / ps.site_count * ps.velocity_abs2

    def node(level: float) -> np.ndarray:
        occupied = (energies <= level).astype(float)
        w0 = (occupied[ps.cols] - occupied[ps.rows]) / ps.nu
        return fermi_derivative_neg(level, p) * _mirror_bin(ps.nu, scaled * w0, bin_edges)

    scale = max(float(direct.max(initial=0.0)), 1e-300)
    oracle, quad_err = quad_vec(
        node,
        float(energies[0]) - 1e-9,
        float(energies[-1]) + 1e-9,
        epsabs=1e-13 * scale * max(len(direct), 1),
        epsrel=1e-11,
        points=list(map(float, energies)),
    )
    gap = np.abs(direct - oracle)
    max_abs = float(gap.max(initial=0.0))
    max_rel = max_abs / scale
    return ConvolutionReport(
        max_abs_gap=max_abs,
        max_rel_gap=max_rel,
        scale=scale,
        quad_error=float(quad_err),
        passed=max_rel <= CONVOLUTION_TOL,
    )
