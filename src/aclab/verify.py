"""One-shot verification battery: every computable identity and bound.

Each check returns a CheckResult with status "pass", "fail", or "skipped"
(when the config's boundary or parameters do not admit it), a signed margin
(positive = inside the allowed region), and a human-readable detail line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conductivity as cond, ensemble
from .config import RunConfig
from .disorder import spectral_bounds
from .ensemble import Realization, realization_pair_spectrum
from .lattice import DIRICHLET, build_velocity, position_values
from .response import ExtractionResult, absorbed_energy_lr, absorbed_energy_td, \
    linear_response_extract, propagate_liouville
from .spectral import dos_histogram, energy_bins, subtract_hopping, wegner_check
from .thermo import ThermoParams

MOMENT_TOL = 1e-12  # commutator moments against the pair table, relative to their bound
SUM_RULE_TOL = 1e-12  # open-box total mass against the hopping trace, relative
PLACEMENT_TOL = 1e-12  # sigma bins against np.histogram, relative to the largest bin


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
    eigensolve: dict = field(default_factory=dict)  # observed, not gated: see run_verify

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
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks],
                "eigensolve": self.eigensolve}


def _result(name, ok, margin, detail) -> CheckResult:
    return CheckResult(name=name, status="pass" if ok else "fail",
                       margin=margin, detail=detail)


def _skip(name, why) -> CheckResult:
    return CheckResult(name=name, status="skipped", margin=None, detail=why)


class _Context:
    """The config's realizations, built once; each check reads a prefix of them.

    The measures read blocks joined from the records (conductivity.blocks_of)
    one at a time, so no joined copy outlives the check that made it, and a
    fault injected into the records reaches every check.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.lattice = config.lattice
        self.disorder = config.disorder
        self.thermo = config.thermo
        self.bounds = spectral_bounds(self.disorder, self.lattice)
        self.bin_edges = config.frequency_edges()
        self.hop = (1j * build_velocity(self.lattice)).real  # A = i v, real antisymmetric
        self.records = ensemble._map_indices(
            lambda i: realization_pair_spectrum(self.lattice, self.disorder.with_index(i)),
            config.ensemble["realizations"], 1)

    @property
    def records(self) -> list:
        return self._records

    @records.setter
    def records(self, records: list):
        self._records = records
        self._sigmas = {}

    def blocks(self, n: int):
        """The pair tables of the first n records, joined into blocks, one at a time."""
        return (block for block, _ in cond.blocks_of(self.records[:n]))

    def sigmas(self, n: int) -> list:
        """Conductivity measures at the config's thermo and bins, one per block."""
        if n not in self._sigmas:
            self._sigmas[n] = [cond.conductivity_measure(block, self.thermo, self.bin_edges)
                               for block in self.blocks(n)]
        return self._sigmas[n]


def absorption_oracle(config: RunConfig,
                      realization: Realization) -> tuple[ExtractionResult, float]:
    """Time-domain alpha-ladder intercept W_lin and the measure-route W_lr.

    Both come from the same realization record: the ladder drives it under
    the configured pulse from its own eigensystem, and W_lr integrates its
    conductivity measure on a fine grid against |Ehat|^2.
    """
    lattice = config.lattice
    extraction = linear_response_extract(
        lattice, realization, config.pulse, config.thermo, config.dynamics.alphas,
        dt=config.dynamics.dt)
    ps = realization.pairs
    fine = cond.frequency_bins(ps.bounds, lattice.site_count, bins_per_side=4096)
    sigma = cond.conductivity_measure(ps, config.thermo, fine)
    return extraction, float(absorbed_energy_lr(sigma, config.pulse)[0])


def check_velocity_position(ctx: _Context) -> CheckResult:
    name = "velocity_position"
    if ctx.lattice.boundary != DIRICHLET:
        return _skip(name, "position operator needs dirichlet boundary")
    data = ctx.records[0].spectral
    a_eig = data.vectors.T @ ctx.hop @ data.vectors  # i v_nm
    x_eig = data.vectors.T @ (position_values(ctx.lattice)[:, None] * data.vectors)
    gaps = data.energies[:, None] - data.energies[None, :]
    defect = np.abs(a_eig + gaps * x_eig).max()  # |v_nm - i(E_n-E_m) x_nm|
    scale = max(np.abs(a_eig).max(), 1.0)
    tol = 1e-10 * scale
    return _result(name, defect <= tol, tol - defect,
                   f"max |v_nm - i(E_n-E_m) x_nm| = {defect:.3e} (tol {tol:.1e})")


def check_commutator_moments(ctx: _Context, n: int = 8) -> CheckResult:
    # (ad_H^k v)_nm = nu_nm^k v_nm, so ||ad_H^k A||_F^2 = sum_nm nu^2k |v_nm|^2 with
    # v = -iA (k = 0 sums the table).  The left side applies the stencil to the real
    # A, with no eigenvector: C_k is antisymmetric for even k and symmetric for odd
    # k, so C H = -+(H C)^T.  The right side reads the stored split, with nu from
    # the energies; each gap is scaled by its bound ||A||_F^2 (2 max|E|)^2k.
    scale = max(float(np.vdot(ctx.hop, ctx.hop)), 1.0)
    spread = 2.0 * max(abs(b) for b in ctx.bounds)
    worst = 0.0
    for record in ctx.records[:n]:
        ps, e = record.pairs, record.pairs.energies
        nu2 = (e[ps.rows] - e[ps.cols]) ** 2
        nu2_deg = (e[ps.degenerate_rows] - e[ps.degenerate_cols]) ** 2
        c = ctx.hop
        for k in range(5):
            if k:
                hc = record.potential[:, None] * c
                subtract_hopping(ctx.lattice, hc, c)
                c = hc + hc.T if k % 2 else hc - hc.T
            rhs = 2.0 * (ps.velocity_abs2 @ nu2 ** k) + ps.degenerate_abs2 @ nu2_deg ** k
            worst = max(worst, abs(np.vdot(c, c) - rhs) / (scale * spread ** (2 * k)))
    return _result("commutator_moments", worst <= MOMENT_TOL, MOMENT_TOL - worst,
                   f"max gap of ||ad_H^k A||_F^2 from sum nu^2k |v|^2 over its bound "
                   f"{worst:.3e}, k = 0..4, over {n} realizations")


def check_positivity(ctx: _Context, n: int = 8) -> CheckResult:
    # Every bin holding a nu > eps_deg pair is >= 0, every other bin exactly 0,
    # and the atom >= 0.  Placement, per realization: each bin against
    # np.histogram of the same pair masses at their nu (an independent binning:
    # sorted, summed as differences of a cumulative sum), with nu clamped at the
    # top edge as _mirror_bin clamps a rounding overrun, at PLACEMENT_TOL of the
    # largest bin.  The margin is that slack; a negative or stray bin shows in
    # it too, since np.histogram's bins are >= 0 and empty ones exactly 0.
    half_edges = ctx.bin_edges[len(ctx.bin_edges) // 2:]
    smallest, stray, atom, gap = np.inf, 0.0, np.inf, 0.0
    for block, sigma in zip(ctx.blocks(n), ctx.sigmas(n)):
        mass = cond._pair_mass(block, ctx.thermo)
        offsets = block.pair_offsets.tolist()
        for bins, a, b in zip(sigma.bin_mass, offsets[:-1], offsets[1:]):
            nu = np.minimum(block.nu[a:b], half_edges[-1])
            counts, _ = np.histogram(nu, bins=half_edges)
            placed, _ = np.histogram(nu, bins=half_edges, weights=mass[a:b])
            held = np.concatenate([counts[::-1], counts]) > 0
            smallest = min(smallest, bins[held].min(initial=np.inf))
            stray = max(stray, np.abs(bins[~held]).max(initial=0.0))
            misplaced = np.abs(bins - np.concatenate([placed[::-1], placed])).max()
            gap = max(gap, misplaced / max(bins.max(), 1e-300))
        atom = min(atom, sigma.atom_at_zero.min())
    ok = smallest >= 0.0 and atom >= 0.0 and stray == 0.0 and gap <= PLACEMENT_TOL
    return _result("positivity", ok, PLACEMENT_TOL - float(gap),
                   f"largest bin gap from np.histogram over the largest bin {gap:.3e}, "
                   f"smallest mass of a bin holding pairs {smallest:.3e}, atom "
                   f"{atom:.3e}, largest |mass| of an empty bin {stray:.3e}")


def check_support(ctx: _Context, n: int = 8) -> CheckResult:
    diameter = ctx.bounds[1] - ctx.bounds[0]
    wide = cond.frequency_bins(ctx.bounds, ctx.lattice.site_count,
                               nu_max=1.25 * diameter)
    worst = 0.0
    for block in ctx.blocks(n):
        hist = cond.conductivity_measure(block, ctx.thermo, wide)
        worst = max(worst, float(hist.mass_outside(diameter).max()))
    return _result("support", worst == 0.0, 0.0 - worst,
                   f"mass beyond the spectral diameter {worst:.3e} (must be exactly 0)")


def check_decomposition(ctx: _Context, n: int = 8) -> CheckResult:
    worst = 0.0
    for block, sigma in zip(ctx.blocks(n), ctx.sigmas(n)):
        exact = cond.gamma_mass(block, ctx.thermo)
        gaps = np.abs(sigma.binned_total() - exact) / np.maximum(exact, 1e-300)
        worst = max(worst, float(gaps.max()))
    tol = cond.DECOMPOSITION_TOL
    return _result("decomposition", worst <= tol, tol - worst,
                   f"binned vs unbinned Gamma mass: max relative gap {worst:.3e}")


def check_convolution(ctx: _Context, n: int = 8) -> CheckResult:
    name = "convolution"
    if ctx.thermo.temperature <= 0:
        return _skip(name, "identity needs T > 0")
    worst = 0.0
    for block in ctx.blocks(n):
        report = cond.convolution_check(block, ctx.thermo, ctx.bin_edges)
        worst = max(worst, float(report.max_rel_gap.max()))
    tol = cond.CONVOLUTION_TOL
    return _result(name, worst <= tol, tol - worst,
                   f"max per-bin relative gap {worst:.3e} over {n} realizations")


def check_sandwich(ctx: _Context, n: int = 32) -> CheckResult:
    name = "sandwich"
    base_t = ctx.thermo.temperature
    if base_t <= 0:
        return _skip(name, "bounds need T > 0")
    mu0 = ctx.thermo.fermi_level
    grid = [(t, mu) for t in (0.5 * base_t, base_t, 2.0 * base_t)
            for mu in (mu0 - 1.0, mu0, mu0 + 1.0)]
    violations = 0
    worst = np.inf
    for block in ctx.blocks(n):
        upsilon = cond.upsilon_measure(block, ctx.bin_edges)
        for t_value, mu in grid:
            p = ThermoParams(temperature=t_value, fermi_level=mu)
            sigma = cond.conductivity_measure(block, p, ctx.bin_edges)
            report = cond.sandwich_check(sigma, upsilon, p, ctx.bounds)
            violations += int(report.violations.sum())
            worst = min(worst, float(report.worst_lower.min()),
                        float(report.worst_upper.min()))
    return _result(name, violations == 0, worst,
                   f"{violations} bin violations over {n} realizations x "
                   f"{len(grid)} (T, mu) points, worst slack {worst:.3e} of the "
                   f"envelope over bins with Upsilon > 0")


def check_high_t_bound(ctx: _Context, n: int = 32) -> CheckResult:
    # Sigma(R) = gamma_mass + atom_mass from the table; the ceiling's
    # ||v||_F^2 = ||A||_F^2 comes from the lattice, so the check does not read
    # the table it bounds.
    t_grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    thermos = [ThermoParams(t, ctx.thermo.fermi_level) for t in t_grid]
    ceiling = cond.high_t_ceiling(t_grid, np.vdot(ctx.hop, ctx.hop) / ctx.lattice.site_count)
    worst = np.inf
    for block in ctx.blocks(n):
        totals = np.array([cond.gamma_mass(block, p) + cond.atom_mass(block, p)
                           for p in thermos])  # (temperature, realization)
        worst = np.minimum(worst, (ceiling[:, None] - totals).min())  # a NaN slack stays NaN
    worst = float(worst)
    return _result("high_t_bound", worst >= 0, worst,
                   f"min slack below (pi/4T) ||v||_F^2 / |Lambda| {worst:.3e} over "
                   f"{n} realizations x {len(t_grid)} temperatures")


def check_sum_rule(ctx: _Context, n: int) -> CheckResult:
    name = "sum_rule"
    if ctx.lattice.boundary == DIRICHLET:
        # exact per realization: each gap against its own rounding scale
        sides = [cond.sum_rule_sides(block, group, ctx.lattice, ctx.thermo)
                 for block, group in cond.blocks_of(ctx.records[:n])]
        lhs, rhs, scale = (np.concatenate(side) for side in zip(*sides))
        worst = float((np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, scale), 1e-300)).max())
        return _result(name, worst <= SUM_RULE_TOL, SUM_RULE_TOL - worst,
                       f"max |Sigma(R) - 2 pi <f(H)_(x+e1,x)>| over its scale "
                       f"{worst:.3e} over {n} realizations")
    if n < 2:
        return _skip(name, "needs at least 2 realizations for a stderr")
    report = cond.sum_rule_mass(ctx.records[:n], ctx.lattice, ctx.thermo)
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
    dos = dos_histogram([r.spectral for r in ctx.records[:n]], edges)
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
    dt = ctx.config.dynamics.route_check_dt
    trace = propagate_liouville(ctx.lattice, ctx.records[0], ctx.config.pulse, 0.05,
                                ctx.thermo, dt=dt)
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
    extraction, w_lr = absorption_oracle(ctx.config, ctx.records[0])
    rel = abs(extraction.w_lin - w_lr) / max(w_lr, 1e-300)
    ratio = extraction.ratio_smallest_pair()
    ok = rel <= 0.05 and 3.8 <= ratio <= 4.2
    return _result(name, ok, 0.05 - rel,
                   f"|W_lin - W_lr| / W_lr = {rel:.3%}, smallest-pair "
                   f"W(2a)/W(a) = {ratio:.3f}")


def run_verify(config: RunConfig) -> VerifyReport:
    ctx = _Context(config)
    n = config.ensemble["realizations"]
    small = min(n, 8)
    medium = min(n, 32)
    checks = [
        check_velocity_position(ctx),
        check_commutator_moments(ctx, small),
        check_positivity(ctx, small),
        check_support(ctx, small),
        check_decomposition(ctx, small),
        check_convolution(ctx, small),
        check_sandwich(ctx, medium),
        check_high_t_bound(ctx, medium),
        check_sum_rule(ctx, n),
        check_wegner(ctx, n),
        check_energy_routes(ctx),
        check_oracle_energy(ctx),
    ]
    # eigendecompose raises past its gates, so these are how close each came
    solves = [r.spectral for r in ctx.records]
    eigensolve = {
        "realizations": len(solves),
        "max_residual": max(s.residual for s in solves),
        "max_orthonormality_defect": max(s.orthonormality for s in solves),
    }
    return VerifyReport(checks=checks, eigensolve=eigensolve)
