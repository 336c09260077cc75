import numpy as np
import pytest

from aclab import (
    DisorderSpec,
    LatticeSpec,
    Realization,
    ThermoParams,
    build_laplacian,
    build_velocity,
    conductivity_measure,
    convolution_check,
    eigendecompose,
    frequency_bins,
    pair_spectrum,
    psi_diagonal,
    realization_pair_spectrum,
    sandwich_check,
    spectral_bounds,
    sum_rule_mass,
    upsilon_measure,
)

from conftest import MASTER_SEED, make_pair_spectrum, plane_wave_atom


def _free_ring(length):
    lattice = LatticeSpec(1, length, "periodic")
    disorder = DisorderSpec(strength=0.0, seed=MASTER_SEED)
    bounds = spectral_bounds(disorder, lattice)
    data = eigendecompose(build_laplacian(lattice), bounds=bounds)
    return lattice, data, pair_spectrum(data, build_velocity(lattice))


def _dense_abs2(data, velocity):
    """|<n|v|m>|^2 on all n x n eigenpairs, the table pair_spectrum splits."""
    return np.abs(data.vectors.conj().T @ velocity @ data.vectors) ** 2


class TestPairSpectrum:
    def test_two_site_elements(self, two_site):
        # energies -1 < +1: the one nu > eps_deg pair is (1, 0), mirrored at (0, 1)
        lattice, _, data, ps = two_site
        d2 = _dense_abs2(data, build_velocity(lattice))
        assert ps.rows.tolist() == [1] and ps.cols.tolist() == [0]
        assert ps.nu[0] == pytest.approx(2.0, abs=1e-14)
        assert ps.velocity_abs2[0] == pytest.approx(1.0, abs=1e-14)
        assert d2[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert ps.degenerate_rows.tolist() == [0, 1]
        assert ps.degenerate_cols.tolist() == [0, 1]
        assert ps.degenerate_abs2[0] == pytest.approx(0.0, abs=1e-28)
        assert ps.degenerate_abs2[1] == pytest.approx(0.0, abs=1e-28)

    def test_symmetry_under_swap(self):
        lattice = LatticeSpec(1, 12)
        disorder = DisorderSpec(strength=1.0, seed=9)
        data, ps = make_pair_spectrum(lattice, disorder)
        d2 = _dense_abs2(data, build_velocity(lattice))
        assert np.allclose(d2, d2.T, atol=1e-15)
        assert np.allclose(ps.velocity_abs2, d2[ps.cols, ps.rows], atol=1e-15)

    def test_free_ring_velocity_preserves_energy_blocks(self):
        # the velocity commutes with the clean Hamiltonian, so matrix elements
        # between distinct energies vanish
        lattice, data, ps = _free_ring(8)
        d2 = _dense_abs2(data, build_velocity(lattice))
        assert ps.velocity_abs2.size > 0
        assert np.abs(ps.velocity_abs2).max() < 1e-24
        assert np.abs(d2[ps.cols, ps.rows]).max() < 1e-24

    def test_dimension_mismatch(self, two_site):
        _, _, data, _ = two_site
        with pytest.raises(ValueError, match="shape"):
            pair_spectrum(data, np.zeros((3, 3), dtype=complex))


SMALL_SIZE = {1: 6, 2: 4, 3: 3}


@pytest.fixture(scope="module",
                params=[(d, size, strength, boundary)
                        for d in (1, 2, 3) for size in (2, SMALL_SIZE[d])
                        for strength in (0.0, 1.0) for boundary in ("periodic", "dirichlet")],
                ids=lambda c: "d{}-L{}-lam{:g}-{}".format(*c))
def split_table(request):
    """A pair table with the dense |<n|v|m>|^2 it was split from."""
    d, size, strength, boundary = request.param
    lattice = LatticeSpec(d, size, boundary)
    data, ps = make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=13))
    return data, ps, _dense_abs2(data, build_velocity(lattice))


class TestPairTableSplit:
    def test_split_partitions_all_ordered_pairs(self, split_table):
        _, ps, _ = split_table
        n = ps.site_count
        assert 2 * len(ps.nu) + len(ps.degenerate_abs2) == n * n
        for index in (ps.rows, ps.cols, ps.degenerate_rows, ps.degenerate_cols):
            assert index.dtype == np.int32
        flat = ps.rows.astype(np.int64) * n + ps.cols
        assert np.all(np.diff(flat) > 0)  # row-major order

    def test_split_is_at_eps_deg(self, split_table):
        _, ps, _ = split_table
        e = ps.energies
        assert np.array_equal(ps.nu, e[ps.rows] - e[ps.cols])
        assert np.all(ps.nu > ps.eps_deg)
        gaps = np.abs(e[ps.degenerate_rows] - e[ps.degenerate_cols])
        assert np.all(gaps <= ps.eps_deg)

    def test_stored_abs2_matches_dense_both_ways(self, split_table):
        _, ps, d2 = split_table
        assert np.abs(ps.velocity_abs2 - d2[ps.rows, ps.cols]).max(initial=0.0) <= 1e-14
        assert np.abs(ps.velocity_abs2 - d2[ps.cols, ps.rows]).max(initial=0.0) <= 1e-14
        degenerate = (ps.degenerate_rows, ps.degenerate_cols)
        assert np.abs(ps.degenerate_abs2 - d2[degenerate]).max() <= 1e-14


class TestTwoSiteClosedForms:
    def test_t0_masses(self, two_site):
        _, _, _, ps = two_site
        p = ThermoParams(0.0, 0.0)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        assert sigma.atom_at_zero == pytest.approx(0.0, abs=1e-15)
        centers = sigma.centers
        plus = np.argmin(np.abs(centers - 2.0))
        minus = np.argmin(np.abs(centers + 2.0))
        assert sigma.bin_mass[plus] == pytest.approx(np.pi / 4, abs=1e-12)
        assert sigma.bin_mass[minus] == pytest.approx(np.pi / 4, abs=1e-12)
        assert sigma.total() == pytest.approx(np.pi / 2, abs=1e-12)

    def test_t1_masses(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, ThermoParams(1.0, 0.0), edges)
        per_side = np.pi / 2 * np.tanh(0.5) / 2
        plus = np.argmin(np.abs(sigma.centers - 2.0))
        assert sigma.bin_mass[plus] == pytest.approx(per_side, abs=1e-12)
        assert sigma.total() == pytest.approx(2 * per_side, abs=1e-12)

    def test_upsilon_total_one(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        upsilon = upsilon_measure(ps, edges)
        assert upsilon.total() == pytest.approx(1.0, abs=1e-12)
        assert upsilon.atom_at_zero == 0.0

    def test_psi_vanishes(self, two_site):
        _, _, _, ps = two_site
        assert psi_diagonal(ps).total() < 1e-30  # squared solver noise only

    def test_t0_rejects_mu_on_eigenvalue(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        with pytest.raises(ValueError, match="eps_deg"):
            conductivity_measure(ps, ThermoParams(0.0, 1.0), edges)


class TestCleanRing:
    def test_all_mass_in_atom(self):
        _, _, ps = _free_ring(16)
        p = ThermoParams(0.75, 0.2)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        assert sigma.binned_total() == pytest.approx(0.0, abs=1e-24)
        assert sigma.atom_at_zero == pytest.approx(
            plane_wave_atom(16, p), abs=1e-12)

    def test_upsilon_identically_zero(self):
        _, _, ps = _free_ring(16)
        edges = frequency_bins(ps.bounds, ps.site_count)
        assert upsilon_measure(ps, edges).total() == pytest.approx(0.0, abs=1e-24)

    def test_psi_energy_profile(self):
        length = 16
        lattice, _, ps = _free_ring(length)
        edges = np.linspace(-2.13, 2.17, 12)
        psi = psi_diagonal(ps, edges)
        k = 2 * np.pi * np.arange(length) / length
        energies = -2 * np.cos(k)
        exact = np.array([
            np.pi / length * np.sum(4 * np.sin(k[(energies >= lo) & (energies < hi)]) ** 2)
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
        assert np.allclose(psi.bin_mass, exact, atol=1e-12)

    def test_nonzero_disorder_gives_positive_upsilon(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=31)
        for index in range(10):
            _, ps = make_pair_spectrum(lattice, disorder, index)
            edges = frequency_bins(ps.bounds, ps.site_count)
            assert upsilon_measure(ps, edges).total() > 0.1


@pytest.fixture(scope="module")
def realization():
    lattice = LatticeSpec(1, 16)
    disorder = DisorderSpec(strength=1.0, seed=77)
    _, ps = make_pair_spectrum(lattice, disorder)
    return ps


class TestHistogramInvariants:

    def test_evenness_bitwise(self, realization):
        edges = frequency_bins(realization.bounds, realization.site_count)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), edges)
        assert sigma.evenness_defect() == 0.0

    def test_positivity(self, realization):
        edges = frequency_bins(realization.bounds, realization.site_count)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), edges)
        assert sigma.bin_mass.min() >= 0.0
        assert sigma.atom_at_zero >= 0.0

    def test_support_exactly_zero_outside(self, realization):
        diameter = realization.bounds[1] - realization.bounds[0]
        wide = frequency_bins(realization.bounds, realization.site_count,
                              nu_max=1.5 * diameter)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), wide)
        assert sigma.mass_outside(diameter) == 0.0

    def test_decomposition_exact(self, realization):
        edges = frequency_bins(realization.bounds, realization.site_count)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), edges)
        assert sigma.total() == sigma.atom_at_zero + sigma.bin_mass.sum()

    def test_atom_quadrature_clean_ring(self):
        # degenerate blocks make the atom nontrivial; both routes agree
        _, _, ps = _free_ring(12)
        p = ThermoParams(1.3, -0.2)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        oracle = plane_wave_atom(12, p)
        assert abs(sigma.atom_at_zero - oracle) <= 1e-10
        assert sigma.atom_at_zero > 0.5

    def test_t_to_zero_bin_convergence(self, realization):
        # mu held clear of the spectrum grid; thermal bins approach the step bins
        mu = 0.3
        assert np.abs(realization.energies - mu).min() > 1e-3
        edges = frequency_bins(realization.bounds, realization.site_count)
        cold = conductivity_measure(realization, ThermoParams(0.0, mu), edges)
        gaps = []
        for t_value in (0.2, 0.1, 0.05, 0.025):
            warm = conductivity_measure(realization, ThermoParams(t_value, mu), edges)
            gaps.append(np.abs(warm.bin_mass - cold.bin_mass).max())
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 0.02


class TestSumRule:
    def test_clean_ring_exact(self):
        _, data, ps = _free_ring(32)
        lattice = LatticeSpec(1, 32, "periodic")
        record = Realization(np.zeros(32), data, ps)
        report = sum_rule_mass([record, record], lattice, ThermoParams(1.0, 0.0))
        assert abs(report.gap_mean) < 1e-10
        # closed form: +2 pi mean_k cos(k) f(eps(k)) under hopping -1
        k = 2 * np.pi * np.arange(32) / 32
        from aclab import fermi

        closed = 2 * np.pi * np.mean(np.cos(k) * fermi(-2 * np.cos(k), ThermoParams(1.0, 0.0)))
        assert report.rhs_mean == pytest.approx(closed, abs=1e-12)
        assert report.lhs_mean == pytest.approx(
            plane_wave_atom(32, ThermoParams(1.0, 0.0)), abs=1e-12)

    def test_statistical_agreement_with_disorder(self):
        lattice = LatticeSpec(1, 16, "periodic")
        disorder = DisorderSpec(strength=1.0, seed=MASTER_SEED)
        kin, vel = build_laplacian(lattice), build_velocity(lattice)
        batch = [realization_pair_spectrum(lattice, disorder.with_index(i), kin, vel)
                 for i in range(60)]
        report = sum_rule_mass(batch, lattice, ThermoParams(1.0, 0.0))
        assert abs(report.gap_mean) <= 3 * report.gap_stderr_combined
        assert report.lhs_mean > 1.0  # nontrivial total mass at these parameters

    def test_rejects_dirichlet(self, two_site):
        lattice, _, data, ps = two_site
        record = Realization(np.zeros(2), data, ps)
        with pytest.raises(ValueError, match="periodic"):
            sum_rule_mass([record, record], lattice, ThermoParams(1.0, 0.0))


class TestSandwich:
    def test_two_site_window(self, two_site):
        _, _, _, ps = two_site
        p = ThermoParams(1.0, 0.0)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        upsilon = upsilon_measure(ps, edges)
        gamma_total = sigma.binned_total()
        assert gamma_total == pytest.approx(np.pi / 2 * np.tanh(0.5), abs=1e-12)
        assert gamma_total <= np.pi / 4 + 1e-12
        report = sandwich_check(sigma, upsilon, p, ps.bounds, convention=2)
        assert report.passed
        assert report.violations == 0

    def test_batch_no_violations(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=101)
        for index in range(20):
            _, ps = make_pair_spectrum(lattice, disorder, index)
            edges = frequency_bins(ps.bounds, ps.site_count)
            upsilon = upsilon_measure(ps, edges)
            for t_value in (0.5, 1.0, 2.0):
                for mu in (-1.0, 0.0, 1.0):
                    p = ThermoParams(t_value, mu)
                    sigma = conductivity_measure(ps, p, edges)
                    report = sandwich_check(sigma, upsilon, p, ps.bounds)
                    assert report.violations == 0

    def test_upper_bound_tightens_at_band_centre(self, two_site):
        # weights approach 1/(4T) when the pair straddles mu at high T
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        ratios = []
        for t_value in (1.0, 4.0, 16.0):
            p = ThermoParams(t_value, 0.0)
            sigma = conductivity_measure(ps, p, edges)
            upper = np.pi / (4 * t_value) * upsilon_measure(ps, edges).total()
            ratios.append(sigma.binned_total() / upper)
        assert np.all(np.diff(ratios) > 0)
        assert ratios[-1] > 0.99

    def test_bin_mismatch_rejected(self, two_site):
        _, _, _, ps = two_site
        p = ThermoParams(1.0, 0.0)
        edges_a = frequency_bins(ps.bounds, ps.site_count)
        edges_b = frequency_bins(ps.bounds, ps.site_count, bins_per_side=5)
        sigma = conductivity_measure(ps, p, edges_a)
        upsilon = upsilon_measure(ps, edges_b)
        with pytest.raises(ValueError, match="bins"):
            sandwich_check(sigma, upsilon, p, ps.bounds)


class TestConvolution:
    def test_two_site_scalar_identity(self, two_site):
        _, _, _, ps = two_site
        p = ThermoParams(1.0, 0.0)
        edges = frequency_bins(ps.bounds, ps.site_count)
        report = convolution_check(ps, p, edges)
        assert report.passed
        # the surviving bin mass is (pi/2) tanh(1/2) split over two bins
        direct = conductivity_measure(ps, p, edges)
        assert direct.binned_total() == pytest.approx(np.pi / 2 * np.tanh(0.5),
                                                      abs=1e-12)

    def test_random_realization(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=5)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        report = convolution_check(ps, ThermoParams(0.5, 0.3), edges)
        assert report.passed
        assert report.max_rel_gap <= 1e-8

    def test_high_temperature_both_sides_vanish(self):
        lattice = LatticeSpec(1, 12)
        disorder = DisorderSpec(strength=1.0, seed=6)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        p = ThermoParams(500.0, 0.0)
        report = convolution_check(ps, p, edges)
        assert report.passed
        assert conductivity_measure(ps, p, edges).total() < 1e-2

    def test_rejects_t_zero(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        with pytest.raises(ValueError, match="T > 0"):
            convolution_check(ps, ThermoParams(0.0, 0.0), edges)


class TestHighTemperatureEnvelope:
    def test_per_realization_bound_and_vanishing(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=55)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        upsilon_total = upsilon_measure(ps, edges).total()
        psi_total = psi_diagonal(ps).total()
        totals = []
        for t_value in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            p = ThermoParams(t_value, 0.0)
            total = conductivity_measure(ps, p, edges).total()
            envelope = np.pi / (4 * t_value) * (upsilon_total + psi_total)
            assert total <= envelope * (1 + 1e-12)
            totals.append(total)
        assert np.all(np.diff(totals) < 0)

    def test_gamma_nontrivial(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=65)
        for index in range(10):
            _, ps = make_pair_spectrum(lattice, disorder, index)
            edges = frequency_bins(ps.bounds, ps.site_count)
            for t_value in (0.5, 1.0, 2.0):
                sigma = conductivity_measure(ps, ThermoParams(t_value, 0.0), edges)
                assert sigma.binned_total() > 0.0
