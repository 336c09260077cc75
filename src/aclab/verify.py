"""One-shot verification battery: every computable identity and bound.

Each check returns a CheckResult with status "pass", "fail", or "skipped"
(when the config's boundary or parameters do not admit it), a signed margin
(positive = inside the allowed region), and a human-readable detail line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conductivity as cond
from .config import RunConfig
from .disorder import spectral_bounds
from .ensemble import Realization, realization_pair_spectrum
from .lattice import (
    DIRICHLET,
    PERIODIC,
    build_laplacian,
    build_position,
    build_velocity,
)
from .response import ExtractionResult, absorbed_energy_lr, absorbed_energy_td, \
    linear_response_extract, propagate_liouville
from .spectral import build_hamiltonian, dos_histogram, energy_bins, wegner_check
from .thermo import ThermoParams, pair_weight


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    margin: float | None
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "margin": self.margin, "detail": self.detail}


@dataclass
class VerifyReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            margin = "" if c.margin is None else f" margin={c.margin:.3e}"
            out.append(f"[{c.status.upper():7s}] {c.name}:{margin} {c.detail}")
        return out

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _result(name, ok, margin, detail) -> CheckResult:
    return CheckResult(name=name, status="pass" if ok else "fail",
                       margin=margin, detail=detail)


def _skip(name, why) -> CheckResult:
    return CheckResult(name=name, status="skipped", margin=None, detail=why)


class _Context:
    """Shared realizations so the battery diagonalizes each one once."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.lattice = config.lattice
        self.disorder = config.disorder
        self.thermo = config.thermo
        self.bounds = spectral_bounds(self.disorder, self.lattice)
        self.bin_edges = cond.frequency_bins(
            self.bounds, self.lattice.site_count,
            bins_per_side=config.bins.frequency_bins_per_side,
            nu_max=config.bins.nu_max)
        self.laplacian = build_laplacian(self.lattice)
        self.velocity = build_velocity(self.lattice)
        self._records = []
        self._sigmas = []

    def realizations(self, n: int) -> list:
        for i in range(len(self._records), n):
            self._records.append(realization_pair_spectrum(
                self.lattice, self.disorder.with_index(i), self.laplacian, self.velocity))
        return self._records[:n]

    def pair_spectra(self, n: int) -> list:
        return [r.pairs for r in self.realizations(n)]

    def sigmas(self, n: int) -> list:
        """Conductivity measures at the config's thermo and bins, one per realization."""
        for ps in self.pair_spectra(n)[len(self._sigmas):]:
            self._sigmas.append(cond.conductivity_measure(ps, self.thermo, self.bin_edges))
        return self._sigmas[:n]


def absorption_oracle(config: RunConfig, realization: Realization,
                      laplacian: np.ndarray) -> tuple[ExtractionResult, float]:
    """Time-domain alpha-ladder intercept W_lin and the measure-route W_lr.

    Both come from the same realization: the ladder propagates its
    Hamiltonian under the configured pulse, and W_lr integrates its
    conductivity measure on a fine grid against |Ehat|^2.
    """
    lattice = config.lattice
    dynamics = config.dynamics
    h = build_hamiltonian(lattice, realization.potential, laplacian=laplacian)
    extraction = linear_response_extract(
        h, build_position(lattice), config.pulse, config.thermo, dynamics.alphas,
        dt=dynamics.dt, dt_scale=dynamics.dt_scale,
        tail_fraction=dynamics.tail_fraction)
    ps = realization.pairs
    fine = cond.frequency_bins(ps.bounds, lattice.site_count, bins_per_side=4096)
    sigma = cond.conductivity_measure(ps, config.thermo, fine)
    return extraction, absorbed_energy_lr(sigma, config.pulse)


def check_velocity_position(ctx: _Context) -> CheckResult:
    name = "velocity_position"
    if ctx.lattice.boundary != DIRICHLET:
        return _skip(name, "position operator needs dirichlet boundary")
    data = ctx.realizations(1)[0].spectral
    x1 = build_position(ctx.lattice)
    d_eig = data.vectors.conj().T @ ctx.velocity @ data.vectors
    x_eig = data.vectors.conj().T @ x1 @ data.vectors
    gaps = data.energies[:, None] - data.energies[None, :]
    defect = np.abs(d_eig - 1j * gaps * x_eig).max()
    scale = max(np.abs(d_eig).max(), 1.0)
    tol = 1e-10 * scale
    return _result(name, defect <= tol, tol - defect,
                   f"max |v_nm - i(E_n-E_m) x_nm| = {defect:.3e} (tol {tol:.1e})")


def check_evenness(ctx: _Context, n: int = 8) -> CheckResult:
    # Each mirrored negative bin against its own nu < -eps_deg pairs, taken from
    # the dense |Q^H v Q|^2 rather than the stored table.  Pairs are binned at
    # |nu|, so one on a bin edge lands in the mirror image of its partner's bin.
    half_edges = ctx.bin_edges[len(ctx.bin_edges) // 2:]
    worst = 0.0
    for record, sigma in zip(ctx.realizations(n), ctx.sigmas(n)):
        data, ps = record.spectral, record.pairs
        e = data.energies
        abs2 = np.abs(data.vectors.conj().T @ ctx.velocity @ data.vectors) ** 2
        nu = e[:, None] - e[None, :]
        rows, cols = np.nonzero(nu < -ps.eps_deg)
        mass = (np.pi / ps.site_count * abs2[rows, cols]
                * pair_weight(e[rows], e[cols], ctx.thermo, ps.eps_deg))
        negative, _ = np.histogram(-nu[rows, cols], bins=half_edges, weights=mass)
        gap = np.abs(sigma.bin_mass[:len(negative)] - negative[::-1]).max()
        worst = max(worst, float(gap / max(sigma.bin_mass.max(), 1e-300)))
    tol = cond.EVEN_TOL
    return _result("evenness", worst <= tol, tol - worst,
                   f"max gap of a negative bin from its own pairs {worst:.3e} "
                   f"over {n} realizations")


def check_positivity(ctx: _Context, n: int = 8) -> CheckResult:
    sigmas = ctx.sigmas(n)
    worst = min(min(s.bin_mass.min(), s.atom_at_zero) for s in sigmas)
    return _result("positivity", worst >= 0.0, worst,
                   f"smallest mass {worst:.3e} over {n} realizations")


def check_support(ctx: _Context, n: int = 8) -> CheckResult:
    diameter = ctx.bounds[1] - ctx.bounds[0]
    wide = cond.frequency_bins(ctx.bounds, ctx.lattice.site_count,
                               nu_max=1.25 * diameter)
    spectra = ctx.pair_spectra(n)
    worst = 0.0
    for ps in spectra:
        hist = cond.conductivity_measure(ps, ctx.thermo, wide)
        worst = max(worst, hist.mass_outside(diameter))
    return _result("support", worst == 0.0, 0.0 - worst,
                   f"mass beyond the spectral diameter {worst:.3e} (must be exactly 0)")


def check_decomposition(ctx: _Context, n: int = 8) -> CheckResult:
    worst = 0.0
    for ps, sigma in zip(ctx.pair_spectra(n), ctx.sigmas(n)):
        exact = cond.gamma_mass(ps, ctx.thermo)
        worst = max(worst, abs(sigma.binned_total() - exact) / max(exact, 1e-300))
    tol = cond.DECOMPOSITION_TOL
    return _result("decomposition", worst <= tol, tol - worst,
                   f"binned vs unbinned Gamma mass: max relative gap {worst:.3e}")


def check_convolution(ctx: _Context, n: int = 3) -> CheckResult:
    name = "convolution"
    if ctx.thermo.temperature <= 0:
        return _skip(name, "identity needs T > 0")
    spectra = ctx.pair_spectra(n)
    worst = 0.0
    for ps in spectra:
        report = cond.convolution_check(ps, ctx.thermo, ctx.bin_edges)
        worst = max(worst, report.max_rel_gap)
    tol = cond.CONVOLUTION_TOL
    return _result(name, worst <= tol, tol - worst,
                   f"max per-bin relative gap {worst:.3e} over {n} realizations")


def check_sandwich(ctx: _Context, n: int = 32) -> CheckResult:
    name = "sandwich"
    base_t = ctx.thermo.temperature
    if base_t <= 0:
        return _skip(name, "bounds need T > 0")
    spectra = ctx.pair_spectra(n)
    mu0 = ctx.thermo.fermi_level
    grid = [(t, mu) for t in (0.5 * base_t, base_t, 2.0 * base_t)
            for mu in (mu0 - 1.0, mu0, mu0 + 1.0)]
    violations = 0
    worst = np.inf
    for ps in spectra:
        upsilon = cond.upsilon_measure(ps, ctx.bin_edges)
        for t_value, mu in grid:
            p = ThermoParams(temperature=t_value, fermi_level=mu)
            sigma = cond.conductivity_measure(ps, p, ctx.bin_edges)
            report = cond.sandwich_check(sigma, upsilon, p, ctx.bounds, convention=2)
            violations += report.violations
            worst = min(worst, report.worst_lower, report.worst_upper)
    return _result(name, violations == 0, worst,
                   f"{violations} bin violations over {n} realizations x "
                   f"{len(grid)} (T, mu) points, worst slack {worst:.3e}")


def check_high_t_bound(ctx: _Context, n: int = 32) -> CheckResult:
    spectra = ctx.pair_spectra(n)
    t_grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    worst = np.inf
    ok = True
    for ps in spectra:
        upsilon_total = cond.upsilon_measure(ps, ctx.bin_edges).total()
        psi_total = cond.psi_diagonal(ps).total()
        for t_value in t_grid:
            p = ThermoParams(temperature=t_value, fermi_level=ctx.thermo.fermi_level)
            sigma_total = cond.conductivity_measure(ps, p, ctx.bin_edges).total()
            envelope = np.pi / (4.0 * t_value) * (upsilon_total + psi_total)
            slack = envelope + 1e-12 * max(envelope, 1.0) - sigma_total
            worst = min(worst, slack)
            ok = ok and slack >= 0
    return _result("high_t_bound", ok, worst,
                   f"min envelope slack {worst:.3e} over {n} realizations x "
                   f"{len(t_grid)} temperatures")


def check_sum_rule(ctx: _Context, n: int) -> CheckResult:
    name = "sum_rule"
    if ctx.lattice.boundary != PERIODIC:
        return _skip(name, "covariance argument needs periodic boundary")
    if n < 2:
        return _skip(name, "needs at least 2 realizations for a stderr")
    report = cond.sum_rule_mass(ctx.realizations(n), ctx.lattice, ctx.thermo)
    allowance = 3.0 * report.gap_stderr_combined + 1e-12 * abs(report.lhs_mean)
    ok = abs(report.gap_mean) <= allowance
    return _result(name, ok, allowance - abs(report.gap_mean),
                   f"lhs {report.lhs_mean:.6f}, rhs {report.rhs_mean:.6f}, "
                   f"gap {report.gap_mean:+.3e} vs 3*stderr {allowance:.3e}")


def check_wegner(ctx: _Context, n: int) -> CheckResult:
    name = "wegner"
    if ctx.disorder.strength <= 0:
        return _skip(name, "bound is vacuous at lambda = 0")
    edges = energy_bins(ctx.bounds, ctx.lattice.site_count,
                        n_bins=ctx.config.bins.dos_bins)
    dos = dos_histogram([r.spectral for r in ctx.realizations(n)], edges)
    report = wegner_check(dos, ctx.disorder)
    return _result(name, report.passed, -report.worst_margin,
                   f"worst bin density excess {report.worst_margin:+.3e} "
                   f"against rho_sup/lambda = {report.bound:.4f}")


def check_energy_routes(ctx: _Context) -> CheckResult:
    name = "energy_routes"
    if ctx.lattice.boundary != DIRICHLET:
        return _skip(name, "time-domain route needs dirichlet boundary")
    if ctx.config.pulse is None:
        return _skip(name, "no pulse configured")
    potential = ctx.realizations(1)[0].potential
    h = build_hamiltonian(ctx.lattice, potential, laplacian=ctx.laplacian)
    x1 = build_position(ctx.lattice)
    dt = ctx.config.dynamics.route_check_dt or 2.5e-4
    trace = propagate_liouville(h, x1, ctx.config.pulse, 0.05, ctx.thermo, dt=dt,
                                tail_fraction=ctx.config.dynamics.tail_fraction)
    routes = absorbed_energy_td(trace)
    rel = abs(routes.gap) / max(abs(routes.w_energy), 1e-300)
    tol = 1e-8
    return _result(name, rel <= tol, tol - rel,
                   f"|W_current - W_energy| / |W| = {rel:.3e} at dt = {dt:g}")


def check_oracle_energy(ctx: _Context) -> CheckResult:
    name = "oracle_energy"
    if ctx.lattice.boundary != DIRICHLET:
        return _skip(name, "time-domain route needs dirichlet boundary")
    if ctx.config.pulse is None:
        return _skip(name, "no pulse configured")
    extraction, w_lr = absorption_oracle(ctx.config, ctx.realizations(1)[0],
                                         ctx.laplacian)
    rel = abs(extraction.w_lin - w_lr) / max(w_lr, 1e-300)
    ratio = extraction.ratio_smallest_pair()
    ok = rel <= 0.05 and 3.8 <= ratio <= 4.2
    return _result(name, ok, 0.05 - rel,
                   f"|W_lin - W_lr| / W_lr = {rel:.3%}, smallest-pair "
                   f"W(2a)/W(a) = {ratio:.3f}")


def run_verify(config: RunConfig) -> VerifyReport:
    ctx = _Context(config)
    n = config.realizations
    small = min(n, 8)
    medium = min(n, 32)
    checks = [
        check_velocity_position(ctx),
        check_evenness(ctx, small),
        check_positivity(ctx, small),
        check_support(ctx, small),
        check_decomposition(ctx, small),
        check_convolution(ctx, min(n, 3)),
        check_sandwich(ctx, medium),
        check_high_t_bound(ctx, medium),
        check_sum_rule(ctx, n),
        check_wegner(ctx, n),
        check_energy_routes(ctx),
        check_oracle_energy(ctx),
    ]
    return VerifyReport(checks=checks)
