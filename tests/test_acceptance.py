"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Desk scale throughout: d = 1, L <= 64, ensembles <= 200 realizations.
"""

import numpy as np

from aclab import (
    DisorderSpec,
    FieldPulse,
    LatticeSpec,
    ThermoParams,
    absorbed_energy_lr,
    absorbed_energy_td,
    build_velocity,
    conductivity_measure,
    convolution_check,
    disorder_sweep,
    dos_histogram,
    eigendecompose,
    energy_bins,
    frequency_bins,
    linear_response_extract,
    pair_spectrum,
    position_values,
    propagate_liouville,
    psi_diagonal,
    realization_pair_spectrum,
    sandwich_check,
    spectral_bounds,
    temperature_sweep,
    upsilon_measure,
    wegner_check,
)
from aclab.verify import TWISTED_SUM_RULE_TOL

from conftest import MASTER_SEED, make_pair_spectrum, plane_wave_atom, sum_rule_gap

SEED = MASTER_SEED


def _report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def _batch(lattice, disorder, count):
    return [realization_pair_spectrum(lattice, disorder.with_index(index))
            for index in range(count)]


def test_criterion_1_exact_identities():
    # convolution per bin (1e-8), decomposition (1e-12), velocity-position
    # (1e-10), evenness bit for bit, support exactly zero
    worst = {"convolution": 0.0, "decomposition": 0.0, "support": 0.0}
    even = True
    periodic = LatticeSpec(1, 16, "periodic")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    p = ThermoParams(1.0, 0.0)
    for index in range(5):
        _, ps = make_pair_spectrum(periodic, disorder, index)
        edges = frequency_bins(ps.bounds, ps.site_count)
        report = convolution_check(ps, p, edges)
        worst["convolution"] = max(worst["convolution"], report.max_rel_gap[0])
        sigma = conductivity_measure(ps, p, edges)
        total, bins = sigma.total()[0], sigma.bin_mass[0]
        worst["decomposition"] = max(
            worst["decomposition"],
            abs(total - (sigma.atom_at_zero[0] + bins.sum())) / total)
        even = even and np.array_equal(bins, bins[::-1])
        diameter = ps.bounds[1] - ps.bounds[0]
        wide = frequency_bins(ps.bounds, ps.site_count, nu_max=1.5 * diameter)
        beyond = wide[:-1] >= diameter  # bins lying entirely outside [-diameter, diameter]
        outside = conductivity_measure(ps, p, wide).bin_mass[0, beyond | beyond[::-1]].sum()
        worst["support"] = max(worst["support"], outside)

    open_box = LatticeSpec(1, 16, "dirichlet")
    velocity = build_velocity(open_box)
    x1 = np.diag(position_values(open_box))
    vp_defect = 0.0
    for index in range(5):
        data, _ = make_pair_spectrum(open_box, disorder, index)
        d_eig = data.vectors.conj().T @ velocity @ data.vectors
        x_eig = data.vectors.conj().T @ x1 @ data.vectors
        gaps = data.energies[:, None] - data.energies[None, :]
        vp_defect = max(vp_defect, np.abs(d_eig - 1j * gaps * x_eig).max())

    ok = (worst["convolution"] <= 1e-8 and worst["decomposition"] <= 1e-12
          and even and worst["support"] == 0.0
          and vp_defect <= 1e-10)
    _report(1, ok,
            f"convolution {worst['convolution']:.2e} (<=1e-8), "
            f"decomposition {worst['decomposition']:.2e} (<=1e-12), "
            f"velocity-position {vp_defect:.2e} (<=1e-10), "
            f"evenness {'bit for bit' if even else 'broken'}, "
            f"support-excess {worst['support']:.1e} (=0)")


def test_criterion_2_per_realization_inequalities():
    lattice = LatticeSpec(1, 16, "periodic")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    grid = [(t, mu) for t in (0.5, 1.0, 2.0) for mu in (-1.0, 0.0, 1.0)]
    violations = 0
    min_mass = np.inf
    envelope_ok = True
    for index in range(100):
        _, ps = make_pair_spectrum(lattice, disorder, index)
        edges = frequency_bins(ps.bounds, ps.site_count)
        upsilon = upsilon_measure(ps, edges)
        psi_total = psi_diagonal(ps).total()[0]
        for t_value, mu in grid:
            p = ThermoParams(t_value, mu)
            sigma = conductivity_measure(ps, p, edges)
            min_mass = min(min_mass, sigma.bin_mass[0].min(), sigma.atom_at_zero[0])
            report = sandwich_check(sigma, upsilon, p, ps.bounds)
            violations += report.violations[0]
            envelope = (np.pi * upsilon.total()[0] + psi_total) / (4 * t_value)
            envelope_ok = envelope_ok and sigma.total()[0] <= envelope * (1 + 1e-12)
    ok = violations == 0 and min_mass >= 0.0 and envelope_ok
    _report(2, ok,
            f"sandwich violations {violations} (=0) over 100 realizations x "
            f"{len(grid)} (T, mu) points, min mass {min_mass:.1e} (>=0), "
            f"high-T envelope per realization {'ok' if envelope_ok else 'violated'}")


def test_criterion_3_nontriviality():
    lattice = LatticeSpec(1, 16, "periodic")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    smallest = np.inf
    for index in range(100):
        _, ps = make_pair_spectrum(lattice, disorder, index)
        edges = frequency_bins(ps.bounds, ps.site_count)
        for t_value in (0.5, 1.0, 2.0):
            sigma = conductivity_measure(ps, ThermoParams(t_value, 0.0), edges)
            smallest = min(smallest, sigma.binned_total()[0])
    _report(3, smallest > 0.0,
            f"min Gamma(R) over 100 realizations x 3 temperatures = "
            f"{smallest:.4f} (> 0)")


def test_criterion_4_high_temperature_vanishing():
    lattice = LatticeSpec(1, 16, "periodic")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    table = temperature_sweep(disorder, lattice, 0.0, grid, n=64)
    totals = table.column("sigma_total_mean")
    decreasing = bool(np.all(np.diff(totals) < 0))
    bound_ok = True
    for row in table.rows:
        envelope = row["envelope_mean"]
        slack = 3.0 * row["sigma_total_stderr"] * row["temperature"]
        bound_ok = bound_ok and row["t_times_sigma"] <= envelope + slack
    per_realization_ok = all(row["high_t_bound_ok"] for row in table.rows)
    ok = decreasing and bound_ok and per_realization_ok
    _report(4, ok,
            f"mean Sigma(R) decreasing over T in {grid}: {decreasing}; "
            f"T*Sigma below (pi/4) mean ||v||_F^2/|Lambda| + 3 stderr at every "
            f"point: {bound_ok}")


def test_criterion_5_small_disorder_collapse():
    lattice = LatticeSpec(1, 32, "periodic")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    p = ThermoParams(1.0, 0.0)
    table = disorder_sweep(lattice, p, [0.0, 0.05, 0.1, 0.2, 0.4], disorder,
                           n=100)
    fractions = {row["strength"]: row["near_zero_fraction_mean"]
                 for row in table.rows}
    ladder = [fractions[v] for v in (0.4, 0.2, 0.1, 0.05)]
    monotone = bool(np.all(np.diff(ladder) > 0))
    clean_atom = table.rows[0]["atom_mass_mean"]
    closed = plane_wave_atom(32, p)
    clean_ok = abs(clean_atom - closed) <= 1e-10
    ok = ladder[-1] >= 0.9 and monotone and clean_ok
    _report(5, ok,
            f"near-zero fraction at lambda=0.05: {ladder[-1]:.4f} (>=0.9), "
            f"monotone up as lambda drops {ladder}: {monotone}; lambda=0 atom "
            f"vs closed form gap {abs(clean_atom - closed):.1e} (<=1e-10)")


def test_criterion_6_large_disorder_decay():
    lattice = LatticeSpec(1, 32, "periodic")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    table = disorder_sweep(lattice, ThermoParams(1.0, 0.0),
                           [10.0, 20.0, 40.0, 80.0], disorder, n=64)
    totals = table.column("sigma_total_mean")
    decreasing = bool(np.all(np.diff(totals) < 0))
    slope = table.meta["loglog_slope"]
    ok = decreasing and slope <= -0.1
    _report(6, ok,
            f"mean Sigma(R) strictly decreasing over lambda in (10,20,40,80): "
            f"{decreasing}; fitted log-log slope {slope:.3f} (<= -0.1; the "
            f"-1/4 envelope is reported, not asserted)")


def test_criterion_7_sum_rule():
    # per realization, Sigma(R) = 2 pi <f(H)_(x+e1,x)> - (pi/|Lambda|) Omega''(0)
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    p = ThermoParams(1.0, 0.0)
    worst = {}
    for length in (8, 16, 32):
        lattice = LatticeSpec(1, length, "periodic")
        gaps = [sum_rule_gap(r, lattice, p) for r in _batch(lattice, disorder, 100)]
        worst[length] = max(gap / bound for gap, bound in gaps)
    ok = all(gap <= TWISTED_SUM_RULE_TOL for gap in worst.values())
    _report(7, ok,
            "max |Sigma(R) - 2 pi <f(H)_(x+e1,x)> + (pi/|Lambda|) Omega''| over its "
            "scale per realization: "
            + ", ".join(f"L={length}: {gap:.1e}" for length, gap in worst.items())
            + f" (<={TWISTED_SUM_RULE_TOL:g})")


def test_criterion_8_wegner():
    lattice = LatticeSpec(1, 64, "periodic")
    margins = {}
    for strength in (2.0, 5.0):
        disorder = DisorderSpec(strength=strength, seed=SEED)
        batch = _batch(lattice, disorder, 200)
        edges = energy_bins(spectral_bounds(disorder, lattice), lattice.site_count)
        report = wegner_check(dos_histogram([r.spectral for r in batch], edges),
                              disorder)
        margins[strength] = report
    ok = all(r.passed for r in margins.values())
    _report(8, ok,
            "worst bin density excess over rho_sup/lambda + 3 stderr: "
            + ", ".join(f"lambda={s}: {r.worst_margin:+.2e}"
                        for s, r in margins.items()))


def test_criterion_9_energy_absorption_oracle():
    lattice = LatticeSpec(1, 12, "dirichlet")
    disorder = DisorderSpec(strength=1.0, seed=SEED)
    p = ThermoParams(1.0, 0.0)
    spec = disorder.with_index(0)
    record = realization_pair_spectrum(lattice, spec)
    bounds = spectral_bounds(spec, lattice)
    pulse = FieldPulse(amplitude=1.0, width=8.0, carrier=2.0)

    trace = propagate_liouville(lattice, record, pulse, 0.05, p, dt=2.5e-4)
    routes = absorbed_energy_td(trace)
    route_rel = abs(routes.gap) / abs(routes.w_energy)

    extraction = linear_response_extract(lattice, record, pulse, p,
                                         [0.2, 0.1, 0.05, 0.025], dt=5e-3)
    ps = record.pairs
    fine = frequency_bins(bounds, lattice.site_count, bins_per_side=4096)
    sigma = conductivity_measure(ps, p, fine)
    w_lr = absorbed_energy_lr(sigma, pulse)[0]
    oracle_rel = abs(extraction.w_lin - w_lr) / w_lr
    ratio = extraction.ratio_smallest_pair()

    off_pulse = FieldPulse(amplitude=1.0, width=2.0, carrier=12.0)
    w_lr_off = absorbed_energy_lr(sigma, off_pulse)[0]
    off_extraction = linear_response_extract(lattice, record, off_pulse, p,
                                             [0.2, 0.1, 0.05, 0.025], dt=5e-3)

    ok = (oracle_rel <= 0.05 and route_rel <= 1e-8
          and 3.8 <= ratio <= 4.2
          and w_lr_off <= 1e-20
          and abs(off_extraction.w_lin) <= 1e-6 * w_lr)
    _report(9, ok,
            f"|W_lin - W_lr|/W_lr = {oracle_rel:.3%} (<=5%), route gap "
            f"{route_rel:.2e} (<=1e-8), W(2a)/W(a) = {ratio:.3f} (in "
            f"[3.8, 4.2]), off-support W_lr = {w_lr_off:.1e} (<=1e-20) and "
            f"W_lin = {off_extraction.w_lin:.1e} (below fit noise)")


def test_criterion_10_two_site_regression():
    lattice = LatticeSpec(1, 2, "dirichlet")
    disorder = DisorderSpec(strength=0.0, seed=SEED)
    bounds = spectral_bounds(disorder, lattice)
    data = eigendecompose(lattice, np.zeros(2), bounds=bounds)
    ps = pair_spectrum(data, lattice)
    edges = frequency_bins(bounds, lattice.site_count)

    cold = conductivity_measure(ps, ThermoParams(0.0, 0.0), edges)
    warm = conductivity_measure(ps, ThermoParams(1.0, 0.0), edges)
    centers = cold.centers
    plus = int(np.argmin(np.abs(centers - 2.0)))
    minus = int(np.argmin(np.abs(centers + 2.0)))
    per_side_warm = np.pi / 2 * np.tanh(0.5) / 2
    upsilon_total = upsilon_measure(ps, edges).total()[0]

    gap_cold = max(abs(cold.bin_mass[0, plus] - np.pi / 4),
                   abs(cold.bin_mass[0, minus] - np.pi / 4))
    gap_warm = max(abs(warm.bin_mass[0, plus] - per_side_warm),
                   abs(warm.bin_mass[0, minus] - per_side_warm))
    gap_upsilon = abs(upsilon_total - 1.0)
    ok = gap_cold <= 1e-12 and gap_warm <= 1e-12 and gap_upsilon <= 1e-12
    _report(10, ok,
            f"T=0 side mass gap {gap_cold:.1e} (<=1e-12), T=1 side mass gap "
            f"{gap_warm:.1e} (<=1e-12), Upsilon(R) gap {gap_upsilon:.1e} "
            f"(<=1e-12)")
