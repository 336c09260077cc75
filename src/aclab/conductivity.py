"""Velocity pair spectra and the finite-volume frequency measures built from them.

Per realization, the dissipative response is encoded by the eigenpair table
(nu_nm = E_n - E_m, |<n|v|m>|^2).  Frequency histograms are symmetric grids
about zero with the zero-frequency atom stored outside the bin array; bin
masses are accumulated over positive frequencies only and mirrored, so
evenness holds bit for bit and the atom never contaminates a central bin.

Trace per unit volume is realized as Tr / site_count throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, PERIODIC
from .spectral import SpectralData, energy_bins
from .thermo import ThermoParams, c_mu_t, fermi, fermi_derivative_neg, pair_weight_matrix

DEGENERACY_SCALE = 1e-10
EVEN_TOL = 1e-12
DECOMPOSITION_TOL = 1e-12

T0_ATOM_PSI_DENSITY = "psi-density"
T0_ATOM_ZERO = "zero"


def degeneracy_threshold(bounds: tuple[float, float]) -> float:
    """Eigenvalue pairs closer than this route to the zero-frequency atom."""
    return DEGENERACY_SCALE * (bounds[1] - bounds[0])


@dataclass(frozen=True)
class PairSpectrum:
    """Eigenpair frequencies and squared velocity matrix elements of one realization."""

    energies: np.ndarray
    velocity_abs2: np.ndarray
    site_count: int
    bounds: tuple[float, float]

    @property
    def eps_deg(self) -> float:
        return degeneracy_threshold(self.bounds)

    def frequencies(self) -> np.ndarray:
        e = self.energies
        return e[:, None] - e[None, :]


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
    """Tabulate |<n|v|m>|^2 for all eigenpairs of one realization."""
    if velocity.shape != data.vectors.shape:
        raise ValueError(
            f"velocity shape {velocity.shape} does not match eigenbasis "
            f"{data.vectors.shape}"
        )
    d = data.vectors.conj().T @ velocity @ data.vectors
    bounds = data.bounds
    if bounds is None:
        bounds = (float(data.energies[0]), float(data.energies[-1]))
    return PairSpectrum(
        energies=data.energies,
        velocity_abs2=np.abs(d) ** 2,
        site_count=data.site_count,
        bounds=bounds,
    )


def _split_pairs(ps: PairSpectrum) -> tuple:
    """Mask and frequencies of the nu > eps_deg pairs (binned, then mirrored),
    and the (row, column) indices of the |nu| <= eps_deg pairs (the atom)."""
    nu = ps.frequencies()
    positive = nu > ps.eps_deg
    return positive, nu[positive], np.nonzero(np.abs(nu) <= ps.eps_deg)


def _midpoints(ps: PairSpectrum, pairs: tuple) -> np.ndarray:
    return 0.5 * (ps.energies[pairs[0]] + ps.energies[pairs[1]])


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


def conductivity_measure(ps: PairSpectrum, p: ThermoParams, bin_edges: np.ndarray,
                         t0_atom: str = T0_ATOM_PSI_DENSITY) -> MeasureHistogram:
    """Finite-volume conductivity measure of one realization.

    Off-degenerate pairs carry (pi / site_count) |v_nm|^2 w(E_n, E_m) at
    nu_nm, with w the Fermi difference quotient.  Degenerate pairs feed the
    atom: weight (-f)'(midpoint) for T > 0; at T = 0 the atom defaults to the
    smoothed diagonal-measure density at mu (bandwidth 4 DOS bin widths,
    an estimator choice) and t0_atom="zero" drops it.

    At T = 0 the Fermi level must stay farther than eps_deg from every
    eigenvalue; the measure is not defined on that exceptional set.
    """
    n = ps.site_count
    eps = ps.eps_deg
    positive, nu_positive, degenerate = _split_pairs(ps)
    if p.temperature == 0.0:
        if np.abs(ps.energies - p.fermi_level).min() <= eps:
            raise ValueError(
                "T = 0 conductivity measure undefined: fermi_level within "
                "eps_deg of an eigenvalue"
            )
        atom = _t0_atom_mass(ps, degenerate, p, t0_atom)
    else:
        if t0_atom not in (T0_ATOM_PSI_DENSITY, T0_ATOM_ZERO):
            raise ValueError(f"unknown t0_atom mode {t0_atom!r}")
        tangent = fermi_derivative_neg(_midpoints(ps, degenerate), p)
        atom = np.pi / n * float((ps.velocity_abs2[degenerate] * tangent).sum())
    weights = pair_weight_matrix(ps.energies, p, eps)
    pair_mass = (np.pi / n) * ps.velocity_abs2[positive] * weights[positive]
    mass = _mirror_bin(nu_positive, pair_mass, bin_edges)
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=mass,
        atom_at_zero=atom,
        meta={"kind": "sigma", "temperature": p.temperature, "fermi_level": p.fermi_level},
    )


def _t0_atom_mass(ps: PairSpectrum, degenerate: tuple, p: ThermoParams, mode: str) -> float:
    if mode == T0_ATOM_ZERO:
        return 0.0
    if mode != T0_ATOM_PSI_DENSITY:
        raise ValueError(f"unknown t0_atom mode {mode!r}")
    # Gaussian-kernel estimate of the diagonal-measure density at mu.
    dos_width = (ps.bounds[1] - ps.bounds[0]) / (2 * int(np.ceil(np.sqrt(ps.site_count))))
    bandwidth = 4.0 * dos_width
    kernel = np.exp(-0.5 * ((_midpoints(ps, degenerate) - p.fermi_level) / bandwidth) ** 2)
    kernel /= bandwidth * np.sqrt(2.0 * np.pi)
    return np.pi / ps.site_count * float((ps.velocity_abs2[degenerate] * kernel).sum())


def upsilon_measure(ps: PairSpectrum, bin_edges: np.ndarray) -> MeasureHistogram:
    """Temperature-independent velocity pair measure; no pi factor, no atom."""
    positive, nu_positive, _ = _split_pairs(ps)
    mass = _mirror_bin(nu_positive, ps.velocity_abs2[positive] / ps.site_count, bin_edges)
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
    _, _, degenerate = _split_pairs(ps)
    mass, _ = np.histogram(
        ps.energies[degenerate[0]],
        bins=bin_edges,
        weights=np.pi / ps.site_count * ps.velocity_abs2[degenerate],
    )
    return MeasureHistogram(
        bin_edges=np.asarray(bin_edges, dtype=float),
        bin_mass=mass,
        atom_at_zero=0.0,
        meta={"kind": "psi", "axis": "energy"},
    )


def psi_weight(ps: PairSpectrum, weight_fn) -> float:
    """Integrate a scalar function against the exact degenerate-pair point measure."""
    _, _, degenerate = _split_pairs(ps)
    values = np.asarray(weight_fn(_midpoints(ps, degenerate)), dtype=float)
    return np.pi / ps.site_count * float((ps.velocity_abs2[degenerate] * values).sum())


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
    left side reads each one's pair table, the right side its eigensystem.
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
        weights = pair_weight_matrix(ps.energies, p, ps.eps_deg)
        lhs.append(np.pi / ps.site_count * float((ps.velocity_abs2 * weights).sum()))
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


def convolution_check(ps: PairSpectrum, p: ThermoParams, bin_edges: np.ndarray,
                      rel_tol: float = 1e-8) -> ConvolutionReport:
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
    positive, nu_positive, _ = _split_pairs(ps)
    rows, cols = np.nonzero(positive)
    scaled = np.pi / ps.site_count * ps.velocity_abs2[positive]

    def node(level: float) -> np.ndarray:
        occupied = (energies <= level).astype(float)
        w0 = (occupied[cols] - occupied[rows]) / nu_positive
        return fermi_derivative_neg(level, p) * _mirror_bin(nu_positive, scaled * w0, bin_edges)

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
        passed=max_rel <= rel_tol,
    )


def complex_conductivity(sigma: MeasureHistogram, eta: float,
                         nu_grid: np.ndarray) -> np.ndarray:
    """Lorentzian-smoothed transform -(i/pi) int sigma(d lam) / (lam + nu - i eta).

    Uses bin centers plus the atom; Re of the result is a positive Lorentzian
    smearing of the measure for any eta > 0.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    nu_grid = np.asarray(nu_grid, dtype=float)
    lam = sigma.centers
    denom = lam[None, :] + nu_grid[:, None] - 1j * eta
    out = (sigma.bin_mass[None, :] / denom).sum(axis=1)
    out = out + sigma.atom_at_zero / (nu_grid - 1j * eta)
    return -1j / np.pi * out
