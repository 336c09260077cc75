import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aclab import (
    DisorderSpec,
    LatticeSpec,
    Realization,
    SpectralData,
    ThermoParams,
    build_velocity,
    conductivity_measure,
    convolution_check,
    eigendecompose,
    energy_bins,
    frequency_bins,
    pair_spectrum,
    psi_diagonal,
    realization_pair_spectrum,
    sample_potential,
    sandwich_check,
    spectral_bounds,
    sum_rule_lhs,
    sum_rule_rhs,
    twist_drift,
    upsilon_measure,
)
from aclab.conductivity import (
    BLOCK_BYTES,
    PairSpectrum,
    _bin_index,
    _mirror_bin,
    atom_mass,
    gamma_mass,
    high_t_ceiling,
    join,
    psi_total,
    tables_per_block,
    upsilon_total,
)
from aclab.spectral import BOUNDS_SLACK
from aclab.verify import TWISTED_SUM_RULE_TOL

from conftest import MASTER_SEED, lattices, make_pair_spectrum, plane_wave_atom, \
    sum_rule_gap


def _free_ring(length):
    lattice = LatticeSpec(1, length, "periodic")
    disorder = DisorderSpec(strength=0.0, seed=MASTER_SEED)
    bounds = spectral_bounds(disorder, lattice)
    data = eigendecompose(lattice, np.zeros(length), bounds=bounds)
    return lattice, data, pair_spectrum(data, lattice)


def _dense_abs2(data, velocity):
    """|<n|v|m>|^2 on all n x n eigenpairs, the table pair_spectrum splits."""
    return np.abs(data.vectors.conj().T @ velocity @ data.vectors) ** 2


def _assert_stored_abs2_matches(ps, d2):
    """Stored |v|^2 equals the dense table at (row, col), (col, row) and the degenerate pairs."""
    assert np.abs(ps.velocity_abs2 - d2[ps.rows, ps.cols]).max(initial=0.0) <= 1e-14
    assert np.abs(ps.velocity_abs2 - d2[ps.cols, ps.rows]).max(initial=0.0) <= 1e-14
    degenerate = (ps.degenerate_rows, ps.degenerate_cols)
    assert np.abs(ps.degenerate_abs2 - d2[degenerate]).max() <= 1e-14


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
            pair_spectrum(data, LatticeSpec(1, 3, "dirichlet"))


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
        _assert_stored_abs2_matches(ps, d2)


@settings(max_examples=60, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0]), st.integers(0, 2**32 - 1))
def test_pair_table_matches_dense_velocity_route(lattice, strength, seed):
    # the shift-difference table against build_velocity followed by |Q^H v Q|^2
    data, ps = make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=seed))
    _assert_stored_abs2_matches(ps, _dense_abs2(data, build_velocity(lattice)))
    if lattice.boundary == "periodic" and lattice.linear_size == 2:
        # x + e1 and x - e1 are the same site, so the two bonds cancel exactly
        assert not ps.velocity_abs2.any() and not ps.degenerate_abs2.any()


@settings(max_examples=80, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0]), st.integers(0, 2**32 - 1))
@example(LatticeSpec(3, 2, "periodic"), 0.0, 0)  # every pair degenerate
@example(LatticeSpec(2, 4, "periodic"), 0.0, 0)  # clean degeneracies at L > 2
@example(LatticeSpec(1, 2, "dirichlet"), 0.0, 0)
def test_pair_table_is_the_dense_split_bit_for_bit(lattice, strength, seed):
    # the triangle route against n x n nu, nonzero(nu > eps) and nonzero(|nu| <= eps)
    data, ps = make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=seed))
    q, e, n = data.vectors, data.energies, lattice.site_count
    padded = np.vstack([q, np.zeros(n)])  # an out-of-box target (-1) reads zeros
    hop = padded[lattice.neighbor_shift(0, +1)] - padded[lattice.neighbor_shift(0, -1)]
    abs2 = (q.T @ hop) ** 2
    nu = e[:, None] - e[None, :]
    rows, cols = np.nonzero(nu > ps.eps_deg)
    degenerate = np.nonzero(np.abs(nu) <= ps.eps_deg)
    expected = {"rows": rows, "cols": cols, "nu": nu[rows, cols],
                "velocity_abs2": abs2[rows, cols],
                "degenerate_rows": degenerate[0], "degenerate_cols": degenerate[1],
                "degenerate_abs2": abs2[degenerate]}
    for name, want in expected.items():
        got = getattr(ps, name)
        assert got.dtype == (np.int32 if want.dtype.kind == "i" else want.dtype), name
        assert np.array_equal(got, want), name


def test_pair_spectrum_rejects_descending_energies(two_site):
    lattice, _, data, _ = two_site
    flipped = SpectralData(energies=data.energies[::-1].copy(),
                           vectors=data.vectors[:, ::-1].copy(),
                           site_count=data.site_count, bounds=data.bounds)
    with pytest.raises(ValueError, match="ascend"):
        pair_spectrum(flipped, lattice)


@st.composite
def binning_cases(draw):
    """Edges of a symmetric frequency grid or an energy grid, and values on and off them."""
    low = draw(st.floats(-10.0, 10.0))
    bounds = (low, low + draw(st.floats(0.1, 20.0)))
    sites = draw(st.integers(1, 64))
    grid = draw(st.sampled_from([frequency_bins, energy_bins]))
    edges = grid(bounds, sites)
    span = edges[-1] - edges[0]
    value = st.one_of(
        st.floats(edges[0], edges[-1]),
        st.sampled_from(edges.tolist()),  # interior, first and last edges
        st.floats(edges[-1], edges[-1] + span, exclude_min=True),
        st.floats(edges[0] - span, edges[0], exclude_max=True),
    )
    values = draw(st.lists(value, max_size=200))
    weights = draw(st.lists(st.floats(0.0, 1e3), min_size=len(values),
                            max_size=len(values)))
    return edges, np.array(values, dtype=float), np.array(weights, dtype=float)


@settings(max_examples=200, deadline=None)
@given(binning_cases())
def test_bin_sum_matches_np_histogram(case):
    # np.histogram's bins: half-open, the last one closed, out-of-range dropped
    edges, values, weights = case
    n_bins = len(edges) - 1
    index = _bin_index(values, edges)
    inside = (index >= 0) & (index < n_bins)
    assert np.array_equal(index[~inside] < 0, values[~inside] < edges[0])
    counts, _ = np.histogram(values, bins=edges)
    assert np.array_equal(np.bincount(index[inside], minlength=n_bins), counts)
    masses, _ = np.histogram(values, bins=edges, weights=weights)
    gap = np.abs(np.bincount(index[inside], weights[inside], minlength=n_bins) - masses)
    assert gap.max() <= 1e-12 * weights.sum()


def test_bin_sum_rejects_decreasing_edges():
    with pytest.raises(ValueError, match="monotonically"):
        _bin_index(np.zeros(1), np.array([0.0, 2.0, 1.0]))


@pytest.mark.parametrize("nu_max", [0.5, 8.0])
def test_mirror_bin_takes_an_overrun_within_the_bounds_slack(nu_max):
    # eigenvalues may pass each bound by BOUNDS_SLACK, so a pair frequency may
    # pass the default nu_max by twice that; beyond it nu_max is too small
    edges = frequency_bins((-0.5 * nu_max, 0.5 * nu_max), 16)
    slack = 2.0 * BOUNDS_SLACK * max(1.0, nu_max)
    def table(nu):  # a block of one holding only these pair frequencies
        pairs = len(nu)
        return PairSpectrum(
            energies=np.zeros(1), rows=np.zeros(pairs, np.int32),
            cols=np.zeros(pairs, np.int32), nu=nu, velocity_abs2=np.ones(pairs),
            degenerate_rows=np.zeros(0, np.int32), degenerate_cols=np.zeros(0, np.int32),
            degenerate_abs2=np.zeros(0), site_count=1, bounds=(0.0, nu_max),
            pair_offsets=np.array([0, pairs]), degenerate_offsets=np.array([0, 0]))

    inside = np.array([0.3 * nu_max, nu_max + 0.9 * slack])
    mass = _mirror_bin(table(inside), np.array([1.0, 2.0]), edges)[0]
    assert mass[-1] == mass[0] == 2.0
    assert mass.sum() == 6.0
    with pytest.raises(ValueError, match="enlarge nu_max"):
        _mirror_bin(table(np.array([nu_max + 1.1 * slack])), np.ones(1), edges)


class TestTwoSiteClosedForms:
    def test_t0_masses(self, two_site):
        _, _, _, ps = two_site
        p = ThermoParams(0.0, 0.0)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        assert sigma.atom_at_zero[0] == pytest.approx(0.0, abs=1e-15)
        centers = sigma.centers
        plus = np.argmin(np.abs(centers - 2.0))
        minus = np.argmin(np.abs(centers + 2.0))
        assert sigma.bin_mass[0, plus] == pytest.approx(np.pi / 4, abs=1e-12)
        assert sigma.bin_mass[0, minus] == pytest.approx(np.pi / 4, abs=1e-12)
        assert sigma.total()[0] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_t1_masses(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, ThermoParams(1.0, 0.0), edges)
        per_side = np.pi / 2 * np.tanh(0.5) / 2
        plus = np.argmin(np.abs(sigma.centers - 2.0))
        assert sigma.bin_mass[0, plus] == pytest.approx(per_side, abs=1e-12)
        assert sigma.total()[0] == pytest.approx(2 * per_side, abs=1e-12)

    def test_upsilon_total_one(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        upsilon = upsilon_measure(ps, edges)
        assert upsilon.total()[0] == pytest.approx(1.0, abs=1e-12)
        assert upsilon.atom_at_zero[0] == 0.0

    def test_psi_vanishes(self, two_site):
        _, _, _, ps = two_site
        assert psi_diagonal(ps).total()[0] < 1e-30  # squared solver noise only

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
        assert sigma.binned_total()[0] == pytest.approx(0.0, abs=1e-24)
        assert sigma.atom_at_zero[0] == pytest.approx(
            plane_wave_atom(16, p), abs=1e-12)

    def test_upsilon_identically_zero(self):
        _, _, ps = _free_ring(16)
        edges = frequency_bins(ps.bounds, ps.site_count)
        assert upsilon_measure(ps, edges).total()[0] == pytest.approx(0.0, abs=1e-24)

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
        assert np.allclose(psi.bin_mass[0], exact, atol=1e-12)

    def test_nonzero_disorder_gives_positive_upsilon(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=31)
        for index in range(10):
            _, ps = make_pair_spectrum(lattice, disorder, index)
            edges = frequency_bins(ps.bounds, ps.site_count)
            assert upsilon_measure(ps, edges).total()[0] > 0.1


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
        assert np.array_equal(sigma.bin_mass[0], sigma.bin_mass[0, ::-1])

    def test_positivity(self, realization):
        edges = frequency_bins(realization.bounds, realization.site_count)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), edges)
        assert sigma.bin_mass[0].min() >= 0.0
        assert sigma.atom_at_zero[0] >= 0.0

    def test_support_exactly_zero_outside(self, realization):
        diameter = realization.bounds[1] - realization.bounds[0]
        wide = frequency_bins(realization.bounds, realization.site_count,
                              nu_max=1.5 * diameter)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), wide)
        outside = sigma.bin_edges[:-1] >= diameter
        assert not sigma.bin_mass[0, outside | outside[::-1]].any()

    def test_decomposition_exact(self, realization):
        edges = frequency_bins(realization.bounds, realization.site_count)
        sigma = conductivity_measure(realization, ThermoParams(0.9, 0.4), edges)
        assert sigma.total()[0] == sigma.atom_at_zero[0] + sigma.bin_mass[0].sum()

    def test_atom_quadrature_clean_ring(self):
        # degenerate blocks make the atom nontrivial; both routes agree
        _, _, ps = _free_ring(12)
        p = ThermoParams(1.3, -0.2)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        oracle = plane_wave_atom(12, p)
        assert abs(sigma.atom_at_zero[0] - oracle) <= 1e-10
        assert sigma.atom_at_zero[0] > 0.5

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
        p = ThermoParams(1.0, 0.0)
        assert sum_rule_gap(record, lattice, p)[0] < 1e-10
        # closed form: +2 pi mean_k cos(k) f(eps(k)) under hopping -1
        k = 2 * np.pi * np.arange(32) / 32
        from aclab import fermi

        closed = 2 * np.pi * np.mean(np.cos(k) * fermi(-2 * np.cos(k), p))
        assert sum_rule_rhs(data, lattice, p)[0] == pytest.approx(closed, abs=1e-12)
        assert sum_rule_lhs(ps, p)[0] == pytest.approx(plane_wave_atom(32, p), abs=1e-12)

    def test_every_realization_holds_with_disorder(self):
        disorder = DisorderSpec(strength=1.0, seed=MASTER_SEED)
        p = ThermoParams(1.0, 0.0)
        for length in (8, 16, 32):
            lattice = LatticeSpec(1, length, "periodic")
            batch = [realization_pair_spectrum(lattice, disorder.with_index(i))
                     for i in range(60)]
            gap, bound = np.array([sum_rule_gap(r, lattice, p) for r in batch]).T
            assert (gap <= TWISTED_SUM_RULE_TOL * bound).all(), length
            assert np.mean([sum_rule_lhs(r.pairs, p)[0] for r in batch]) > 1.0

    def test_rejects_dirichlet(self, two_site):
        lattice, _, _, _ = two_site
        with pytest.raises(ValueError, match="periodic"):
            twist_drift(lattice, np.zeros(2), ThermoParams(1.0, 0.0), 1e-12)


class TestSandwich:
    def test_two_site_window(self, two_site):
        _, _, _, ps = two_site
        p = ThermoParams(1.0, 0.0)
        edges = frequency_bins(ps.bounds, ps.site_count)
        sigma = conductivity_measure(ps, p, edges)
        upsilon = upsilon_measure(ps, edges)
        gamma_total = sigma.binned_total()[0]
        assert gamma_total == pytest.approx(np.pi / 2 * np.tanh(0.5), abs=1e-12)
        assert gamma_total <= np.pi / 4 + 1e-12
        report = sandwich_check(sigma, upsilon, p, ps.bounds)
        assert report.passed[0]
        assert report.violations[0] == 0

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
                    assert report.violations[0] == 0

    def test_upper_bound_tightens_at_band_centre(self, two_site):
        # weights approach 1/(4T) when the pair straddles mu at high T
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        ratios = []
        for t_value in (1.0, 4.0, 16.0):
            p = ThermoParams(t_value, 0.0)
            sigma = conductivity_measure(ps, p, edges)
            upper = np.pi / (4 * t_value) * upsilon_measure(ps, edges).total()[0]
            ratios.append(sigma.binned_total()[0] / upper)
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
        assert report.passed[0]
        # the surviving bin mass is (pi/2) tanh(1/2) split over two bins
        direct = conductivity_measure(ps, p, edges)
        assert direct.binned_total()[0] == pytest.approx(np.pi / 2 * np.tanh(0.5),
                                                      abs=1e-12)

    def test_random_realization(self):
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=5)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        report = convolution_check(ps, ThermoParams(0.5, 0.3), edges)
        assert report.passed[0]
        assert report.max_rel_gap[0] <= 1e-8

    def test_high_temperature_both_sides_vanish(self):
        lattice = LatticeSpec(1, 12)
        disorder = DisorderSpec(strength=1.0, seed=6)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        p = ThermoParams(500.0, 0.0)
        report = convolution_check(ps, p, edges)
        assert report.passed[0]
        assert conductivity_measure(ps, p, edges).total()[0] < 1e-2

    def test_rejects_t_zero(self, two_site):
        _, _, _, ps = two_site
        edges = frequency_bins(ps.bounds, ps.site_count)
        with pytest.raises(ValueError, match="T > 0"):
            convolution_check(ps, ThermoParams(0.0, 0.0), edges)

    EDGE_CASES = {  # lattice, disorder strength, thermo, disorder seed
        # an L = 2 ring meets its one neighbour twice, so every |v|^2 is 0
        "ring_L2": (LatticeSpec(1, 2, "periodic"), 1.0, ThermoParams(1.0, 0.0), 6),
        # a clean open square has exact level ties (E_ij = E_ji) and mass off them
        "clean_square": (LatticeSpec(2, 6, "dirichlet"), 0.0, ThermoParams(0.5, 0.3), 6),
        "hot": (LatticeSpec(1, 12, "dirichlet"), 1.0, ThermoParams(500.0, 0.0), 6),
        "cold": (LatticeSpec(1, 32, "dirichlet"), 5.0, ThermoParams(0.05, 0.3), 6),
        # every level far above mu: the plain tanh difference of two values
        # near 1 cancels here (gaps up to 1.0), the log sinh / cosh form does not
        "empty_band": (LatticeSpec(1, 12, "dirichlet"), 1.0, ThermoParams(0.05, -4.0), 6),
        # every level far below mu: a difference of two occupations rounded
        # to within an ulp of 1 cancels, the product form does not
        "full_band": (LatticeSpec(1, 32, "periodic"), 1.0, ThermoParams(0.1, 4.0), 6),
        # both levels below mu by 50 T and more: their occupations both round to 1
        "cold_L2": (LatticeSpec(1, 2, "dirichlet"), 5.0, ThermoParams(0.05, 0.3),
                    MASTER_SEED),
        "d3_L6": (LatticeSpec(3, 6, "periodic"), 1.0, ThermoParams(1.0, 0.2), 6),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_passes_on_edge_spectra(self, case):
        lattice, strength, p, seed = self.EDGE_CASES[case]
        _, ps = make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=seed))
        report = convolution_check(ps, p, frequency_bins(ps.bounds, ps.site_count))
        assert report.passed[0]
        assert report.max_rel_gap[0] <= 1e-12

    # At T = 500 a 1e-6 shift of mu moves the quotients by about 1e-12 relative,
    # below any tolerance, so that case scales a pair only.
    @pytest.mark.parametrize("case, fault", [
        ("clean_square", "shifted_fermi_level"), ("cold", "shifted_fermi_level"),
        ("empty_band", "shifted_fermi_level"), ("full_band", "shifted_fermi_level"),
        ("clean_square", "scaled_pair"), ("cold", "scaled_pair"), ("hot", "scaled_pair")])
    def test_fails_when_only_the_direct_bins_move(self, monkeypatch, case, fault):
        # the oracle reads neither conductivity.pair_weight nor _pair_mass, so
        # a 1e-6 fault in either moves the direct bins alone
        import aclab.conductivity as cond

        lattice, strength, p, seed = self.EDGE_CASES[case]
        _, ps = make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=seed))
        edges = frequency_bins(ps.bounds, ps.site_count)
        assert convolution_check(ps, p, edges).passed[0]
        if fault == "shifted_fermi_level":
            pair_weight = cond.pair_weight
            monkeypatch.setattr(cond, "pair_weight", lambda e, low, high, q: pair_weight(
                e, low, high, ThermoParams(q.temperature, q.fermi_level + 1e-6)))
        else:
            pair_mass = cond._pair_mass

            def scaled(ps, q):
                mass = pair_mass(ps, q)
                mass[np.argmax(mass)] *= 1.0 + 1e-6
                return mass

            monkeypatch.setattr(cond, "_pair_mass", scaled)
        report = convolution_check(ps, p, edges)
        assert not report.passed[0]
        assert report.max_rel_gap[0] > cond.CONVOLUTION_TOL


class TestHighTemperatureEnvelope:
    def test_per_realization_bound_and_vanishing(self):
        # every pair weight and (-f)' is at most 1/4T: T Sigma(R) <= (pi Upsilon + Psi) / 4
        lattice = LatticeSpec(1, 16)
        disorder = DisorderSpec(strength=1.0, seed=55)
        _, ps = make_pair_spectrum(lattice, disorder)
        edges = frequency_bins(ps.bounds, ps.site_count)
        velocity_norm2 = upsilon_total(ps)[0] + psi_total(ps)[0] / np.pi
        totals = []
        for t_value in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            p = ThermoParams(t_value, 0.0)
            total = conductivity_measure(ps, p, edges).total()[0]
            assert total <= np.pi / (4 * t_value) * velocity_norm2 * (1 + 1e-12)
            assert total <= high_t_ceiling(t_value, velocity_norm2)
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
                assert sigma.binned_total()[0] > 0.0


@settings(max_examples=60, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from([0.0, 0.25, 16.0]),
       st.integers(0, 2**32 - 1))
@example(LatticeSpec(1, 2, "periodic"), 0.0, 0.25, 0)  # every |v|^2 is 0
@example(LatticeSpec(2, 4, "periodic"), 0.0, 0.0, 0)   # degenerate mass, T = 0 atom
@example(LatticeSpec(3, 4, "dirichlet"), 5.0, 16.0, 0)
def test_totals_from_the_table_match_the_binned_measures(lattice, strength, temperature,
                                                         seed):
    # the unbinned totals every sweep and check reads, against the histograms'
    # totals, and Upsilon + Psi / pi against ||A||_F^2 / |Lambda| by Parseval
    _, ps = make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=seed))
    p = ThermoParams(temperature, 0.1)
    assume(temperature > 0 or np.abs(ps.energies - p.fermi_level).min() > ps.eps_deg)
    edges = frequency_bins(ps.bounds, ps.site_count)
    hop = (1j * build_velocity(lattice)).real
    for table, other in [
        (upsilon_total(ps)[0], upsilon_measure(ps, edges).total()[0]),
        (psi_total(ps)[0], psi_diagonal(ps).total()[0]),
        (gamma_mass(ps, p)[0] + atom_mass(ps, p)[0],
         conductivity_measure(ps, p, edges).total()[0]),
        (upsilon_total(ps)[0] + psi_total(ps)[0] / np.pi, np.vdot(hop, hop) / ps.site_count),
    ]:
        assert abs(table - other) <= 1e-12 * max(abs(table), abs(other))


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from([0.0, 0.25, 16.0]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(LatticeSpec(1, 2, "periodic"), 1.0, 0.25, 3, 0)  # every |v|^2 is 0
@example(LatticeSpec(2, 4, "periodic"), 5.0, 0.0, 2, 0)
@example(LatticeSpec(3, 2, "dirichlet"), 1.0, 16.0, 2, 0)
def test_a_realization_measures_the_same_alone_and_in_a_block(lattice, strength, temperature,
                                                              disordered, seed):
    # a clean realization, whose table has degenerate pairs, ahead of disordered
    # ones, all diagonalized against the disordered ensemble's bounds
    spec = DisorderSpec(strength=strength, seed=seed)
    bounds = spectral_bounds(spec, lattice)
    potentials = [np.zeros(lattice.site_count)] + [
        sample_potential(spec.with_index(i), lattice) for i in range(disordered)]
    records = []
    for potential in potentials:
        data = eigendecompose(lattice, potential, bounds=bounds)
        records.append(Realization(potential, data, pair_spectrum(data, lattice)))
    tables = [r.pairs for r in records]
    block = join(tables)
    assert block.count == len(tables)
    if temperature == 0.0:
        levels = np.sort(block.energies)
        widest = np.argmax(np.diff(levels))
        p = ThermoParams(0.0, 0.5 * (levels[widest] + levels[widest + 1]))
        assume(np.abs(block.energies - p.fermi_level).min() > block.eps_deg)
    else:
        p = ThermoParams(temperature, 0.1)
    edges = frequency_bins(bounds, lattice.site_count)
    wide = frequency_bins(bounds, lattice.site_count, nu_max=1.5 * (bounds[1] - bounds[0]))

    def measures(ps):
        sigma = conductivity_measure(ps, p, edges)
        upsilon = upsilon_measure(ps, edges)
        out = {"sigma": sigma.bin_mass, "atom": sigma.atom_at_zero,
               "sigma_total": sigma.total(), "near_zero": sigma.near_zero_mass(),
               "wide": conductivity_measure(ps, p, wide).bin_mass,
               "gamma": gamma_mass(ps, p), "atom_mass": atom_mass(ps, p),
               "upsilon": upsilon.bin_mass, "upsilon_total": upsilon_total(ps),
               "psi": psi_diagonal(ps).bin_mass, "psi_total": psi_total(ps),
               "sum_rule_lhs": sum_rule_lhs(ps, p)}
        if temperature > 0:
            out["convolution"] = convolution_check(ps, p, edges).max_rel_gap
            report = sandwich_check(sigma, upsilon, p, bounds)
            out["sandwich"] = np.array([report.worst_lower, report.worst_upper,
                                        report.violations], dtype=float).T
        return out

    in_block = measures(block)
    for r, table in enumerate(tables):
        own = measures(table)
        for name, values in own.items():
            assert values.shape[0] == 1, name
            assert _bits(in_block[name][r]) == _bits(values[0]), (name, r)

    if temperature == 0.0:
        # mu on a level of the last realization: the block's T = 0 measure is undefined
        on_level = ThermoParams(0.0, float(tables[-1].energies[0]))
        for measure in (lambda: atom_mass(block, on_level),
                        lambda: conductivity_measure(block, on_level, edges)):
            with pytest.raises(ValueError, match="eps_deg"):
                measure()


def _sized_table(site_count: int, pairs: int) -> PairSpectrum:
    """A table with arrays of a given size and no contents (np.empty), for the budget rule."""
    return PairSpectrum(
        energies=np.empty(site_count), rows=np.empty(pairs, np.int32),
        cols=np.empty(pairs, np.int32), nu=np.empty(pairs), velocity_abs2=np.empty(pairs),
        degenerate_rows=np.empty(site_count, np.int32),
        degenerate_cols=np.empty(site_count, np.int32),
        degenerate_abs2=np.empty(site_count), site_count=site_count, bounds=(-1.0, 1.0),
        pair_offsets=np.array([0, pairs]), degenerate_offsets=np.array([0, site_count]))


@pytest.mark.parametrize("d, size", [(1, 2), (1, 32), (2, 8), (2, 16), (3, 6), (3, 8), (3, 12)])
def test_blocks_stay_within_the_budget(d, size):
    # a block never passes BLOCK_BYTES unless its one table does, so a d=3 L=12
    # table (36 MB) is always measured alone
    n = size ** d
    table = _sized_table(n, n * (n - 1) // 2)
    per = tables_per_block(table)
    assert per >= 1
    assert per * table.nbytes <= max(BLOCK_BYTES, table.nbytes)
    if table.nbytes > BLOCK_BYTES // 2:
        assert per == 1


def test_a_block_of_one_shares_its_table():
    lattice = LatticeSpec(1, 12)
    records = [realization_pair_spectrum(lattice, DisorderSpec(strength=1.0, seed=3).with_index(i))
               for i in range(3)]
    table = records[0].pairs
    alone = join([table])
    assert all(getattr(alone, name) is getattr(table, name) for name in (
        "energies", "rows", "cols", "nu", "velocity_abs2", "degenerate_rows",
        "degenerate_cols", "degenerate_abs2", "pair_offsets", "degenerate_offsets"))
    assert np.shares_memory(alone.velocity_abs2, table.velocity_abs2)
    block = join([r.pairs for r in records])
    assert not np.shares_memory(block.nu, table.nu)
    assert block.pair_offsets.tolist() == [0] + np.cumsum(
        [r.pairs.nu.size for r in records]).tolist()


def test_a_table_past_the_budget_is_its_own_block(monkeypatch):
    import aclab.conductivity as cond
    import aclab.ensemble as ens

    lattice = LatticeSpec(1, 12)
    spec = DisorderSpec(strength=1.0, seed=3)
    first = realization_pair_spectrum(lattice, spec.with_index(0)).pairs
    monkeypatch.setattr(cond, "BLOCK_BYTES", first.nbytes - 1)
    tables = []
    blocks = ens._measured_blocks(lattice, spec, 3, lambda block: block,
                                  lambda i, record: tables.append(record.pairs))
    assert len(blocks) == len(tables) == 3
    for block, table in zip(blocks, tables):
        assert block.count == 1
        assert np.shares_memory(block.nu, table.nu)


def test_join_refuses_tables_of_different_bounds():
    lattice = LatticeSpec(1, 8)
    tables = [make_pair_spectrum(lattice, DisorderSpec(strength=strength, seed=1))[1]
              for strength in (1.0, 2.0)]
    with pytest.raises(ValueError, match="bounds"):
        join(tables)
