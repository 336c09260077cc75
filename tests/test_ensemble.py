import dataclasses
import weakref

import numpy as np
import pytest

import aclab.ensemble as ens

from aclab import (
    DisorderSpec,
    LatticeSpec,
    ThermoParams,
    conductivity_measure,
    disorder_sweep,
    ensemble_average,
    realization_pair_spectrum,
    temperature_sweep,
)

from conftest import MASTER_SEED, plane_wave_atom

LATTICE = LatticeSpec(1, 16, "periodic")
DISORDER = DisorderSpec(strength=1.0, seed=MASTER_SEED)
WARM = ThermoParams(1.0, 0.0)


def test_stderr_shrinks_with_ensemble_size():
    small = ensemble_average(DISORDER, LATTICE, WARM, n=40)
    large = ensemble_average(DISORDER, LATTICE, WARM, n=80)
    ratio = (large.scalars["sigma_total"][1] / small.scalars["sigma_total"][1])
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_zero_disorder_zero_variance():
    # identical realizations: variance is zero up to float reassociation noise
    clean = DisorderSpec(strength=0.0, seed=1)
    result = ensemble_average(clean, LATTICE, WARM, n=8)
    assert result.scalars["sigma_total"][1] == 0.0
    assert np.all(result.sigma_stderr <= 1e-12 * result.scalars["sigma_total"][0])


def test_reduction_order_fixed_by_index():
    # the index-order mean agrees with a reversed-order reduction of the same
    # per-realization totals to the documented tolerance
    result = ensemble_average(DISORDER, LATTICE, WARM, n=12)
    totals = []
    for index in range(12):
        ps = realization_pair_spectrum(LATTICE, DISORDER.with_index(index)).pairs
        totals.append(conductivity_measure(ps, WARM, result.bin_edges).total()[0])
    reversed_mean = sum(reversed(totals)) / 12
    assert abs(result.scalars["sigma_total"][0] - reversed_mean) < 1e-12


def test_blocks_change_no_bit_of_an_ensemble(monkeypatch):
    # every table measured alone (a budget of 1 byte) against the default blocks
    import aclab.conductivity as cond

    def run():
        result = ensemble_average(DISORDER, LATTICE, WARM, n=12)
        table = disorder_sweep(LATTICE, WARM, [0.0, 0.5], DISORDER, n=12)
        sweep = temperature_sweep(DISORDER, LATTICE, 0.0, [0.5, 2.0], n=12)
        return (result.sigma_mean.tobytes(), result.sigma_stderr.tobytes(),
                result.atom_mean, result.scalars, table.rows, sweep.rows)

    blocked = run()
    monkeypatch.setattr(cond, "BLOCK_BYTES", 1)
    assert run() == blocked


def test_each_block_is_measured_before_the_next_eigensolve(monkeypatch):
    import aclab.conductivity as cond
    import aclab.ensemble as ens

    events = []
    solve = ens.realization_pair_spectrum

    def traced(lattice, spec):
        events.append(("solve", spec.realization_index))
        return solve(lattice, spec)

    def measure(block):
        events.append(("measure", block.count))

    monkeypatch.setattr(ens, "realization_pair_spectrum", traced)
    ens._measured_blocks(LATTICE, DISORDER, 3, measure)
    assert events == [("solve", 0), ("solve", 1), ("solve", 2), ("measure", 3)]
    # a table past the budget is measured alone, before the next eigensolve
    events.clear()
    monkeypatch.setattr(cond, "BLOCK_BYTES", 1)
    ens._measured_blocks(LATTICE, DISORDER, 3, measure)
    assert events == [("solve", 0), ("measure", 1), ("solve", 1), ("measure", 1),
                      ("solve", 2), ("measure", 1)]


def test_needs_two_realizations():
    with pytest.raises(ValueError, match="n >= 2"):
        ensemble_average(DISORDER, LATTICE, WARM, n=1)


def test_means_preserve_positivity_and_evenness():
    result = ensemble_average(DISORDER, LATTICE, WARM, n=24)
    assert np.all(result.sigma_mean >= 0.0)
    asym = np.abs(result.sigma_mean - result.sigma_mean[::-1])
    assert np.all(asym <= 1e-12 + 3 * np.hypot(result.sigma_stderr,
                                               result.sigma_stderr[::-1]))


class TestTemperatureSweep:
    def test_bounds_and_vanishing(self):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        table = temperature_sweep(DISORDER, LATTICE, 0.0, grid, n=24)
        assert all(row["high_t_bound_ok"] for row in table.rows)
        assert all(row["gamma_positive"] for row in table.rows)
        totals = table.column("sigma_total_mean")
        assert np.all(np.diff(totals) < 0)
        # T_max / T_min = 64 >= 20: the largest-T mass sits below 10% of the smallest
        assert totals[-1] < 0.1 * totals[0]

    def test_t_sigma_bounded_by_envelope(self):
        grid = [0.5, 2.0, 8.0]
        table = temperature_sweep(DISORDER, LATTICE, 0.0, grid, n=16)
        for row in table.rows:
            assert row["t_times_sigma"] <= row["envelope_mean"] * (1 + 1e-12)

    def test_no_block_outlives_its_measure(self, monkeypatch):
        # a d=1 L=32 block holds 10 tables, so 33 realizations make 4 blocks;
        # each is reduced to its totals before the next one is joined
        join, blocks, alive = ens.join, [], []

        def traced(tables):
            alive.append([i for i, ref in enumerate(blocks) if ref() is not None])
            block = join(tables)
            blocks.append(weakref.ref(block))
            return block

        monkeypatch.setattr(ens, "join", traced)
        temperature_sweep(DISORDER, LatticeSpec(1, 32, "periodic"), 0.0, [0.5, 1.0], n=33)
        assert alive == [[], [], [], []]

    def test_a_doubled_table_breaks_the_high_t_bound(self, monkeypatch):
        # the bound reads ||v||_F^2 from the lattice: a table whose every |v|^2
        # is doubled would also double a ceiling read from the table itself
        solve = ens.realization_pair_spectrum

        def doubled(lattice, spec):
            record = solve(lattice, spec)
            pairs = dataclasses.replace(record.pairs,
                                        velocity_abs2=2.0 * record.pairs.velocity_abs2,
                                        degenerate_abs2=2.0 * record.pairs.degenerate_abs2)
            return dataclasses.replace(record, pairs=pairs)

        monkeypatch.setattr(ens, "realization_pair_spectrum", doubled)
        grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        table = temperature_sweep(DISORDER, LatticeSpec(1, 32, "periodic"), 0.0, grid, n=8)
        assert not any(row["high_t_bound_ok"] for row in table.rows)
        assert table.rows[-1]["envelope_mean"] == np.pi / 2

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            temperature_sweep(DISORDER, LATTICE, 0.0, [1.0, 0.5], n=4)
        with pytest.raises(ValueError, match="grid"):
            temperature_sweep(DISORDER, LATTICE, 0.0, [0.0, 1.0], n=4)


class TestDisorderSweep:
    def test_clean_point_closed_form(self):
        lattice = LatticeSpec(1, 32, "periodic")
        table = disorder_sweep(lattice, WARM, [0.0, 0.1], DISORDER, n=4)
        row = table.rows[0]
        assert row["atom_mass_mean"] == pytest.approx(
            plane_wave_atom(32, WARM), abs=1e-10)
        assert row["gamma_mass_mean"] == pytest.approx(0.0, abs=1e-20)
        assert row["sigma_total_stderr"] == 0.0

    def test_collapse_fraction_monotone(self):
        lattice = LatticeSpec(1, 32, "periodic")
        table = disorder_sweep(lattice, WARM, [0.05, 0.1, 0.2, 0.4], DISORDER,
                               n=24)
        fractions = table.column("near_zero_fraction_mean")
        assert np.all(np.diff(fractions) < 0)  # decreasing in lambda
        assert fractions[0] > 0.9

    def test_large_disorder_decay(self):
        table = disorder_sweep(LATTICE, WARM, [10.0, 20.0, 40.0, 80.0], DISORDER,
                               n=16)
        totals = table.column("sigma_total_mean")
        assert np.all(np.diff(totals) < 0)
        assert table.meta["loglog_slope"] < -0.1

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError, match="T > 0"):
            disorder_sweep(LATTICE, ThermoParams(0.0, 0.0), [1.0, 2.0], DISORDER,
                           n=4)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            disorder_sweep(LATTICE, WARM, [2.0, 1.0], DISORDER, n=4)
        with pytest.raises(ValueError, match="grid"):
            disorder_sweep(LATTICE, WARM, [-1.0, 1.0], DISORDER, n=4)
