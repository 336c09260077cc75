"""One-shot verification battery: every computable identity and bound.

Each check returns a CheckResult with status "pass", "fail", or "skipped"
(when the config's boundary or parameters do not admit it), a signed margin
(positive = inside the allowed region), and a human-readable detail line.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import conductivity as cond, ensemble
from .config import RunConfig
from .disorder import spectral_bounds
from .ensemble import Realization
# Unused here; perfbench's tracer test checks that tracing patches this binding.
from .ensemble import realization_pair_spectrum  # noqa: F401
from .lattice import DIRICHLET, velocity_norm2
from .response import ExtractionResult, absorbed_energy_lr, absorbed_energy_td, \
    linear_response_extract, propagate_liouville
from .spectral import dos_histogram, energy_bins, subtract_hopping, wegner_check
from .thermo import ThermoParams

MOMENT_TOL = 1e-12  # commutator moments against the pair table, relative to their bound
SUM_RULE_TOL = 1e-12  # open-box total mass against the hopping trace, relative
TWISTED_SUM_RULE_TOL = 5e-10  # the same less the twist drift: 10x CHANGES.md's worst residual
PLACEMENT_TOL = 1e-12  # sigma bins against np.histogram, relative to the largest bin
HIGH_T_GRID = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
# sandwich's (T, mu): the config's T times each scale, its mu plus each shift
SANDWICH_GRID = [(scale, shift) for scale in (0.5, 1.0, 2.0) for shift in (-1.0, 0.0, 1.0)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    margin: float | None
    detail: str


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
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks],
                "eigensolve": self.eigensolve}


def _result(name, ok, margin, detail) -> CheckResult:
    # JSON has no Infinity or NaN; the status and the detail carry the outcome
    return CheckResult(name=name, status="pass" if ok else "fail",
                       margin=margin if math.isfinite(margin) else None, detail=detail)


def _skip(name, why) -> CheckResult:
    return CheckResult(name=name, status="skipped", margin=None, detail=why)


class _Context:
    """The config's constants, and one row per realization read for each check.

    run_verify walks the realizations once through ensemble._measured_blocks:
    each() reads a whole record before its eigenvectors go, measure() a block
    of pair tables.  A check over the first k realizations keeps the rows of
    the blocks that begin inside them and reduces exactly k rows.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.lattice = config.lattice
        self.thermo = config.thermo
        self.bounds = spectral_bounds(config.disorder, self.lattice)
        self.bin_edges = config.frequency_edges()
        self.hop = cond.hop_rows(np.eye(self.lattice.site_count), self.lattice)  # A = i v
        self.hop_norm2 = velocity_norm2(self.lattice)  # ||A||_F^2 = ||v||_F^2
        n = config.ensemble["realizations"]
        self.small, self.medium = min(n, 8), min(n, 32)
        self.first = []    # the time-domain checks, which drive realization 0
        self.potential = None  # realization 0's, for the twist drift
        self.spectra = []  # every eigensystem, without its eigenvectors
        self.rows = defaultdict(list)

    def each(self, i: int, record: Realization):
        if i == 0:
            self.first = [check_energy_routes(self, record),
                          check_oracle_energy(self, record)]
            self.potential = record.potential
        if i < self.small:
            self.rows["commutator_moments"].append([_moment_gap(self, record)])
        self.rows["sum_rule_rhs"].append(
            [cond.sum_rule_rhs(record.spectral, self.lattice, self.thermo)])
        self.spectra.append(replace(record.spectral, vectors=None))

    def measure(self, block: cond.PairSpectrum):
        start = len(self.spectra) - block.count  # each() has seen the block's records
        p, rows = self.thermo, self.rows
        rows["sum_rule_lhs"].append(cond.sum_rule_lhs(block, p))
        if start < self.small:
            sigma = cond.conductivity_measure(block, p, self.bin_edges)
            rows["positivity"].append(_placement(self, block, sigma))
            if p.temperature > 0:
                rows["convolution"].append(
                    cond.convolution_check(block, p, self.bin_edges).max_rel_gap)
        if start < self.medium:
            if p.temperature > 0:
                rows["sandwich"].append(_sandwich_rows(self, block))
            rows["high_t_bound"].append(_high_t_slack(self, block))

    def prefix(self, name: str, n: int) -> np.ndarray:
        """The rows of one check for the first n realizations."""
        return np.concatenate(self.rows[name])[:n]


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


def _moment_gap(ctx: _Context, record: Realization) -> float:
    # (ad_H^k v)_nm = nu_nm^k v_nm, so ||ad_H^k A||_F^2 = sum_nm nu^2k |v_nm|^2 with
    # v = -iA (k = 0 sums the table).  The left side applies the stencil to the real
    # A, with no eigenvector: C_k is antisymmetric for even k and symmetric for odd
    # k, so C H = -+(H C)^T.  The right side reads the stored split, with nu from
    # the energies; each gap is scaled by its bound ||A||_F^2 (2 max|E|)^2k.
    scale = max(ctx.hop_norm2, 1.0)
    spread = 2.0 * max(abs(bound) for bound in ctx.bounds)
    ps, e = record.pairs, record.pairs.energies
    nu2 = (e[ps.rows] - e[ps.cols]) ** 2
    nu2_deg = (e[ps.degenerate_rows] - e[ps.degenerate_cols]) ** 2
    worst, c = 0.0, ctx.hop
    for k in range(5):
        if k:
            hc = record.potential[:, None] * c
            subtract_hopping(ctx.lattice, hc, c)
            c = hc + hc.T if k % 2 else hc - hc.T
        rhs = 2.0 * (ps.velocity_abs2 @ nu2 ** k) + ps.degenerate_abs2 @ nu2_deg ** k
        worst = max(worst, abs(np.vdot(c, c) - rhs) / (scale * spread ** (2 * k)))
    return worst


def check_commutator_moments(ctx: _Context, n: int) -> CheckResult:
    worst = max(ctx.prefix("commutator_moments", n))
    return _result("commutator_moments", worst <= MOMENT_TOL, MOMENT_TOL - worst,
                   f"max gap of ||ad_H^k A||_F^2 from sum nu^2k |v|^2 over its bound "
                   f"{worst:.3e}, k = 0..4, over {n} realizations")


def _placement(ctx: _Context, block: cond.PairSpectrum,
               sigma: cond.MeasureHistogram) -> np.ndarray:
    """Per realization: smallest held bin, largest |empty bin|, atom, placement gap."""
    half_edges = ctx.bin_edges[len(ctx.bin_edges) // 2:]
    mass = cond._pair_mass(block, ctx.thermo)
    offsets = block.pair_offsets.tolist()
    rows = []
    for bins, atom, lo, hi in zip(sigma.bin_mass, sigma.atom_at_zero,
                                  offsets[:-1], offsets[1:]):
        nu = np.minimum(block.nu[lo:hi], half_edges[-1])
        counts, _ = np.histogram(nu, bins=half_edges)
        placed, _ = np.histogram(nu, bins=half_edges, weights=mass[lo:hi])
        held = np.concatenate([counts[::-1], counts]) > 0
        misplaced = np.abs(bins - np.concatenate([placed[::-1], placed])).max()
        rows.append((bins[held].min(initial=np.inf), np.abs(bins[~held]).max(initial=0.0),
                     atom, misplaced / max(bins.max(), 1e-300)))
    return np.array(rows)


def check_positivity(ctx: _Context, n: int) -> CheckResult:
    # Every bin holding a nu > eps_deg pair is >= 0, every other bin exactly 0,
    # and the atom >= 0.  Placement, per realization: each bin against
    # np.histogram of the same pair masses at their nu (an independent binning:
    # sorted, summed as differences of a cumulative sum), with nu clamped at the
    # top edge as _mirror_bin clamps a rounding overrun, at PLACEMENT_TOL of the
    # largest bin.  The margin is that slack; a negative or stray bin shows in
    # it too, since np.histogram's bins are >= 0 and empty ones exactly 0.
    smallest, stray, atom, gap = ctx.prefix("positivity", n).T
    smallest, stray, atom, gap = smallest.min(), stray.max(), atom.min(), gap.max()
    ok = smallest >= 0.0 and atom >= 0.0 and stray == 0.0 and gap <= PLACEMENT_TOL
    return _result("positivity", ok, PLACEMENT_TOL - float(gap),
                   f"largest bin gap from np.histogram over the largest bin {gap:.3e}, "
                   f"smallest mass of a bin holding pairs {smallest:.3e}, atom "
                   f"{atom:.3e}, largest |mass| of an empty bin {stray:.3e}")


def check_convolution(ctx: _Context, n: int) -> CheckResult:
    name = "convolution"
    if ctx.thermo.temperature <= 0:
        return _skip(name, "identity needs T > 0")
    worst = float(ctx.prefix(name, n).max())
    tol = cond.CONVOLUTION_TOL
    return _result(name, worst <= tol, tol - worst,
                   f"max per-bin relative gap {worst:.3e} over {n} realizations")


def _sandwich_rows(ctx: _Context, block: cond.PairSpectrum) -> np.ndarray:
    """Per realization: bin violations and the worst slack over the (T, mu) grid."""
    upsilon = cond.upsilon_measure(block, ctx.bin_edges)
    violations, worst = np.zeros(block.count), np.full(block.count, np.inf)
    for scale, shift in SANDWICH_GRID:
        p = ThermoParams(scale * ctx.thermo.temperature, ctx.thermo.fermi_level + shift)
        sigma = cond.conductivity_measure(block, p, ctx.bin_edges)
        report = cond.sandwich_check(sigma, upsilon, p, ctx.bounds)
        violations += report.violations
        worst = np.minimum(worst, np.minimum(report.worst_lower, report.worst_upper))
    return np.column_stack([violations, worst])


def check_sandwich(ctx: _Context, n: int) -> CheckResult:
    name = "sandwich"
    if ctx.thermo.temperature <= 0:
        return _skip(name, "bounds need T > 0")
    violations, worst = ctx.prefix(name, n).T
    violations, worst = int(violations.sum()), float(worst.min())
    return _result(name, violations == 0, worst,
                   f"{violations} bin violations over {n} realizations x "
                   f"{len(SANDWICH_GRID)} (T, mu) points, worst slack "
                   f"{worst:.3e} of the envelope over bins with Upsilon > 0")


def _high_t_slack(ctx: _Context, block: cond.PairSpectrum) -> np.ndarray:
    # Sigma(R) = gamma_mass + atom_mass from the table; the ceiling's
    # ||v||_F^2 = ||A||_F^2 comes from the lattice, so the check does not read
    # the table it bounds.
    thermos = [ThermoParams(t, ctx.thermo.fermi_level) for t in HIGH_T_GRID]
    ceiling = cond.high_t_ceiling(HIGH_T_GRID, ctx.hop_norm2 / ctx.lattice.site_count)
    totals = np.array([cond.gamma_mass(block, p) + cond.atom_mass(block, p)
                       for p in thermos])  # (temperature, realization)
    return (ceiling[:, None] - totals).min(axis=0)  # a NaN slack stays NaN


def check_high_t_bound(ctx: _Context, n: int) -> CheckResult:
    worst = float(ctx.prefix("high_t_bound", n).min())
    return _result("high_t_bound", worst >= 0, worst,
                   f"min slack below (pi/4T) ||v||_F^2 / |Lambda| {worst:.3e} over "
                   f"{n} realizations x {len(HIGH_T_GRID)} temperatures")


def check_sum_rule(ctx: _Context, n: int) -> CheckResult:
    # Sigma(R) = 2 pi <f(H)_(x+e1,x)> - (pi/|Lambda|) Omega'' per realization, each gap
    # over its own rounding scale.  The drift term is 0 on open boxes; on a periodic box
    # its twisted solves take seconds at d=3, L=12, so realization 0 alone is gated.
    name = "sum_rule"
    lhs = ctx.prefix("sum_rule_lhs", n)
    rhs, scale = ctx.prefix("sum_rule_rhs", n).T
    bound = np.maximum(np.maximum(lhs, scale), 1e-300)
    gaps, tol, where = np.abs(lhs - rhs) / bound, SUM_RULE_TOL, f"over {n} realizations"
    if ctx.lattice.boundary != DIRICHLET:
        tol = TWISTED_SUM_RULE_TOL
        drift, m = cond.twist_drift(ctx.lattice, ctx.potential, ctx.thermo, 0.1 * tol * bound[0])
        if drift is None:
            return _skip(name, f"twist series of realization 0 unresolved at M = {m} phases")
        gaps = np.abs(lhs[:1] - rhs[:1] + drift) / bound[:1]
        where = (f"on realization 0, less the drift term (pi/|Lambda|) Omega'' = "
                 f"{drift:+.6e} at M = {m} phases")
    worst = float(gaps.max())
    return _result(name, worst <= tol, tol - worst,
                   f"max |Sigma(R) - 2 pi <f(H)_(x+e1,x)>| over its scale {worst:.3e} {where}")


def check_wegner(ctx: _Context, n: int) -> CheckResult:
    name = "wegner"
    if ctx.config.disorder.strength <= 0:
        return _skip(name, "bound is vacuous at lambda = 0")
    edges = energy_bins(ctx.bounds, ctx.lattice.site_count,
                        n_bins=ctx.config.bins.dos_bins)
    dos = dos_histogram(ctx.spectra[:n], edges)
    report = wegner_check(dos, ctx.config.disorder)
    return _result(name, report.passed, -report.worst_margin,
                   f"worst bin density excess {report.worst_margin:+.3e} "
                   f"against rho_sup/lambda = {report.bound:.4f}")


def check_energy_routes(ctx: _Context, record: Realization) -> CheckResult:
    name = "energy_routes"
    if ctx.lattice.boundary != DIRICHLET:
        return _skip(name, "time-domain route needs dirichlet boundary")
    if ctx.config.pulse is None:
        return _skip(name, "no pulse configured")
    dt = ctx.config.dynamics.route_check_dt
    trace = propagate_liouville(ctx.lattice, record, ctx.config.pulse, 0.05,
                                ctx.thermo, dt=dt)
    routes = absorbed_energy_td(trace)
    rel = abs(routes.gap) / max(abs(routes.w_energy), 1e-300)
    tol = 1e-8
    return _result(name, rel <= tol, tol - rel,
                   f"|W_current - W_energy| / |W| = {rel:.3e} at dt = {dt:g}")


def check_oracle_energy(ctx: _Context, record: Realization) -> CheckResult:
    name = "oracle_energy"
    if ctx.lattice.boundary != DIRICHLET:
        return _skip(name, "time-domain route needs dirichlet boundary")
    if ctx.config.pulse is None:
        return _skip(name, "no pulse configured")
    extraction, w_lr = absorption_oracle(ctx.config, record)
    rel = abs(extraction.w_lin - w_lr) / max(w_lr, 1e-300)
    ratio = extraction.ratio_smallest_pair()
    ok = rel <= 0.05 and 3.8 <= ratio <= 4.2
    return _result(name, ok, 0.05 - rel,
                   f"|W_lin - W_lr| / W_lr = {rel:.3%}, smallest-pair "
                   f"W(2a)/W(a) = {ratio:.3f}")


def run_verify(config: RunConfig) -> VerifyReport:
    ctx = _Context(config)
    n = config.ensemble["realizations"]
    ensemble._measured_blocks(config.lattice, config.disorder, n, ctx.measure, ctx.each)
    energy_routes, oracle_energy = ctx.first
    checks = [
        check_commutator_moments(ctx, ctx.small),
        check_positivity(ctx, ctx.small),
        check_convolution(ctx, ctx.small),
        check_sandwich(ctx, ctx.medium),
        check_high_t_bound(ctx, ctx.medium),
        check_sum_rule(ctx, n),
        check_wegner(ctx, n),
        energy_routes,
        oracle_energy,
    ]
    # eigendecompose raises past its gates, so these are how close each came
    eigensolve = {
        "realizations": len(ctx.spectra),
        "max_residual": max(s.residual for s in ctx.spectra),
        "max_orthonormality_defect": max(s.orthonormality for s in ctx.spectra),
    }
    return VerifyReport(checks=checks, eigensolve=eigensolve)
