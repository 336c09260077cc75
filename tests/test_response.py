import numpy as np
import pytest

import aclab.response
from aclab import (
    DisorderSpec,
    FieldPulse,
    LatticeSpec,
    ThermoParams,
    absorbed_energy_lr,
    absorbed_energy_td,
    build_hamiltonian,
    build_laplacian,
    build_position,
    conductivity_measure,
    frequency_bins,
    linear_response_extract,
    propagate_liouville,
    sample_potential,
)

from conftest import make_pair_spectrum

P_COLD = ThermoParams(0.0, 0.0)


@pytest.fixture
def open_pair():
    lattice = LatticeSpec(1, 2, "dirichlet")
    return build_laplacian(lattice), build_position(lattice)


class TestFieldPulse:
    def test_zero_carrier_transform_at_origin(self):
        pulse = FieldPulse(amplitude=1.5, width=2.0, carrier=0.0)
        assert pulse.fourier(0.0) == pytest.approx(1.5 * 2.0 / np.sqrt(2 * np.pi),
                                                   rel=1e-14)

    def test_conjugate_symmetry_exact(self):
        pulse = FieldPulse(amplitude=0.7, width=3.0, carrier=1.3)
        nu = np.linspace(-6, 6, 25)
        hat = pulse.fourier(nu)
        assert np.array_equal(hat, hat[::-1].conj())
        assert np.all(hat.imag == 0.0)

    def test_transform_is_gaussian_integral(self):
        # quadrature oracle for Ehat(nu) = (1/2pi) int E(t) exp(-i nu t) dt
        from scipy.integrate import quad

        pulse = FieldPulse(amplitude=1.1, width=1.7, carrier=0.9)
        for nu in (0.0, 0.5, 2.2):
            real, _ = quad(lambda t: pulse.field(t) * np.cos(nu * t), -40, 40,
                           limit=400)
            assert pulse.fourier(nu) == pytest.approx(real / (2 * np.pi), abs=1e-12)

    def test_narrowband_concentration(self):
        wide = FieldPulse(1.0, 2.0, carrier=2.0)
        narrow = FieldPulse(1.0, 40.0, carrier=2.0)
        # relative weight one unit off-carrier drops with the bandwidth 1/s
        assert narrow.fourier(3.0) / narrow.fourier(2.0) < 1e-100
        assert wide.fourier(3.0) / wide.fourier(2.0) > 1e-3

    def test_field_is_real_and_even(self):
        pulse = FieldPulse(2.0, 1.0, carrier=3.0)
        t = np.linspace(-5, 5, 11)
        assert np.array_equal(pulse.field(t), pulse.field(-t))

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldPulse(1.0, 0.0)
        with pytest.raises(ValueError):
            FieldPulse(1.0, 1.0, carrier=-2.0)

    def test_time_window_controls_tail(self):
        pulse = FieldPulse(1.0, 4.0, carrier=0.0)
        t_max = pulse.time_window(1e-13)
        from scipy.integrate import quad

        total, _ = quad(lambda t: abs(pulse.field(t)), 0, np.inf)
        tail, _ = quad(lambda t: abs(pulse.field(t)), t_max, np.inf)
        assert tail / total < 1e-12


class TestPropagation:
    def test_equilibrium_carries_no_current(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 2.0, carrier=2.0)
        trace = propagate_liouville(h, x1, pulse, 0.0, ThermoParams(1.0, 0.0),
                                    dt=0.01)
        assert np.abs(trace.current).max() < 1e-12
        routes = absorbed_energy_td(trace)
        assert routes.w_current == 0.0
        assert abs(routes.w_energy) < 1e-11

    def test_trace_and_spectrum_conserved(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 2.0, carrier=2.0)
        trace = propagate_liouville(h, x1, pulse, 0.1, ThermoParams(1.0, 0.0),
                                    dt=0.005)
        assert trace.trace_drift < 1e-10
        assert trace.spectrum_drift < 1e-8

    def test_two_level_resonance(self, open_pair):
        # spectral gap 2: drive on resonance responds far harder than detuned
        h, x1 = open_pair
        on = propagate_liouville(h, x1, FieldPulse(1.0, 6.0, 2.0), 0.05, P_COLD,
                                 dt=0.01)
        off = propagate_liouville(h, x1, FieldPulse(1.0, 6.0, 1.0), 0.05, P_COLD,
                                  dt=0.01)
        assert np.abs(on.current).max() > 5 * np.abs(off.current).max()

    def test_rejects_nondiagonal_position(self, open_pair):
        h, _ = open_pair
        pulse = FieldPulse(1.0, 2.0, carrier=2.0)
        with pytest.raises(ValueError, match="diagonal"):
            propagate_liouville(h, np.array([[0.0, 1.0], [1.0, 0.0]]), pulse,
                                0.1, P_COLD)


class TestStackedLadder:
    ALPHAS = [0.2, 0.1, 0.05, 0.025]

    @pytest.fixture
    def open_six(self):
        lattice = LatticeSpec(1, 6, "dirichlet")
        potential = sample_potential(DisorderSpec(strength=1.0, seed=7), lattice)
        h = build_hamiltonian(lattice, potential, laplacian=build_laplacian(lattice))
        return h, build_position(lattice)

    # 2 t_max / dt = 20.5 -> 21 steps (one partial block); 74.5 -> 75 steps
    # (full blocks plus a tail)
    @pytest.mark.parametrize("dt, steps", [(2.0 / 20.5, 21), (2.0 / 74.5, 75)])
    def test_each_rung_matches_single_alpha_bit_for_bit(self, open_six, dt, steps):
        h, x1 = open_six
        pulse = FieldPulse(1.0, 0.5, carrier=2.0)
        p = ThermoParams(1.0, 0.0)
        ladder = propagate_liouville(h, x1, pulse, self.ALPHAS, p, dt=dt, t_max=1.0)
        assert ladder.meta["steps"] == len(self.ALPHAS) * steps
        assert steps < aclab.response._BLOCK_STEPS or steps % aclab.response._BLOCK_STEPS
        assert ladder.current.shape == (len(self.ALPHAS), steps + 1)
        rungs = ladder.rungs()
        assert [r.alpha for r in rungs] == self.ALPHAS
        for alpha, rung in zip(self.ALPHAS, rungs):
            single = propagate_liouville(h, x1, pulse, alpha, p, dt=dt, t_max=1.0)
            assert single.meta["steps"] == rung.meta["steps"] == steps
            assert np.array_equal(rung.current, single.current)
            assert np.array_equal(rung.energy, single.energy)
            assert rung.trace_drift == single.trace_drift
            assert rung.spectrum_drift == single.spectrum_drift
        with pytest.raises(ValueError, match="rungs"):
            absorbed_energy_td(ladder)

    def test_drift_gate_runs_on_the_ladder(self, open_six, monkeypatch):
        h, x1 = open_six
        monkeypatch.setattr(aclab.response, "SPECTRUM_DRIFT_TOL", 0.0)
        with pytest.raises(RuntimeError, match="spectrum drift"):
            propagate_liouville(h, x1, FieldPulse(1.0, 0.5, carrier=2.0), self.ALPHAS,
                                ThermoParams(1.0, 0.0), dt=0.05, t_max=1.0)


class TestEnergyRoutes:
    def test_route_agreement_converges_quadratically(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 2.0, carrier=2.0)
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            trace = propagate_liouville(h, x1, pulse, 0.05, P_COLD, dt=dt)
            routes = absorbed_energy_td(trace)
            gaps.append(abs(routes.gap) / abs(routes.w_energy))
        assert gaps[0] > 2.5 * gaps[1] > 2.5 * 2.5 * gaps[2]
        assert gaps[2] < 1e-6

    def test_route_agreement_tight_at_fine_step(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 2.0, carrier=2.0)
        trace = propagate_liouville(h, x1, pulse, 0.05, P_COLD, dt=2e-4)
        routes = absorbed_energy_td(trace)
        assert abs(routes.gap) <= 1e-8 * abs(routes.w_energy)

    def test_absorption_nonnegative_small_alpha(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 4.0, carrier=2.0)
        trace = propagate_liouville(h, x1, pulse, 0.02, ThermoParams(0.5, 0.0),
                                    dt=0.005)
        assert absorbed_energy_td(trace).w_energy > -1e-12

    def test_mismatch_rejected(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 2.0, carrier=2.0)
        trace = propagate_liouville(h, x1, pulse, 0.1, P_COLD, dt=0.01)
        with pytest.raises(ValueError, match="alpha"):
            absorbed_energy_td(trace, pulse, alpha=0.2)
        with pytest.raises(ValueError, match="pulse"):
            absorbed_energy_td(trace, FieldPulse(1.0, 2.0, carrier=1.0), alpha=0.1)


class TestExtraction:
    def test_two_site_matches_measure_route(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 6.0, carrier=2.0)
        result = linear_response_extract(h, x1, pulse, P_COLD,
                                         [0.2, 0.1, 0.05, 0.025], dt=0.01)
        closed = 2 * np.pi * (np.pi / 4) * (abs(pulse.fourier(2.0)) ** 2
                                            + abs(pulse.fourier(-2.0)) ** 2)
        assert result.w_lin == pytest.approx(closed, rel=0.01)
        assert 3.8 <= result.ratio_smallest_pair() <= 4.2

    def test_intercept_stable_under_ladder_change(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 6.0, carrier=2.0)
        a = linear_response_extract(h, x1, pulse, P_COLD,
                                    [0.2, 0.1, 0.05, 0.025], dt=0.01)
        b = linear_response_extract(h, x1, pulse, P_COLD,
                                    [0.16, 0.08, 0.04, 0.02], dt=0.01)
        assert abs(a.w_lin - b.w_lin) < 0.01 * abs(a.w_lin)

    def test_ladder_validation(self, open_pair):
        h, x1 = open_pair
        pulse = FieldPulse(1.0, 4.0, carrier=2.0)
        with pytest.raises(ValueError, match="at least 3"):
            linear_response_extract(h, x1, pulse, P_COLD, [0.2, 0.1])
        with pytest.raises(ValueError, match="decreasing"):
            linear_response_extract(h, x1, pulse, P_COLD, [0.05, 0.1, 0.2])
        with pytest.raises(ValueError, match="decade"):
            linear_response_extract(h, x1, pulse, P_COLD, [0.2, 0.15, 0.1])


class TestMeasureRouteEnergy:
    def test_two_site_warm_absorption(self, two_site):
        _, _, _, ps = two_site
        pulse = FieldPulse(1.0, 8.0, carrier=2.0)
        edges = frequency_bins(ps.bounds, ps.site_count, bins_per_side=4096)
        sigma = conductivity_measure(ps, ThermoParams(1.0, 0.0), edges)
        per_side = np.pi / 2 * np.tanh(0.5) / 2
        expected = 2 * np.pi * per_side * (abs(pulse.fourier(2.0)) ** 2
                                           + abs(pulse.fourier(-2.0)) ** 2)
        assert absorbed_energy_lr(sigma, pulse) == pytest.approx(expected, rel=1e-3)

    def test_off_support_pulse_absorbs_nothing(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, ThermoParams(1.0, 0.0), edges)
        pulse = FieldPulse(1.0, 2.0, carrier=12.0)
        assert absorbed_energy_lr(sigma, pulse) < 1e-20

    def test_nonnegative_for_any_pulse(self):
        lattice = LatticeSpec(1, 12)
        disorder = DisorderSpec(strength=1.0, seed=19)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, ThermoParams(0.7, 0.1), edges)
        for carrier in (0.0, 1.0, 3.0):
            assert absorbed_energy_lr(sigma, FieldPulse(1.0, 3.0, carrier)) >= 0.0

