import numpy as np
import pytest

from aclab import (
    DisorderSpec,
    LatticeSpec,
    build_hamiltonian,
    build_laplacian,
    dos_histogram,
    eigendecompose,
    energy_bins,
    sample_potential,
    spectral_bounds,
    wegner_check,
)
from aclab.lattice import plane_wave_energies


def test_hamiltonian_zero_potential_is_kinetic():
    lattice = LatticeSpec(1, 6)
    assert np.array_equal(build_hamiltonian(lattice, np.zeros(6)),
                          build_laplacian(lattice))


def test_hamiltonian_two_site_assembly():
    lattice = LatticeSpec(1, 2, "dirichlet")
    h = build_hamiltonian(lattice, np.array([0.3, -0.8]))
    assert np.array_equal(h, [[0.3, -1.0], [-1.0, -0.8]])


def test_hamiltonian_size_mismatch():
    with pytest.raises(ValueError, match="shape"):
        build_hamiltonian(LatticeSpec(1, 4), np.zeros(5))


def test_two_by_two_closed_form():
    energies = eigendecompose(np.array([[0.0, -1.0], [-1.0, 0.0]])).energies
    assert np.allclose(energies, [-1.0, 1.0], atol=1e-15)


def test_free_ring_energies():
    lattice = LatticeSpec(1, 4, "periodic")
    data = eigendecompose(build_laplacian(lattice))
    assert np.allclose(data.energies, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_identity_shift_invariance():
    rng = np.random.default_rng(3)
    h = rng.uniform(-1, 1, (8, 8))
    h = (h + h.T) / 2
    shift = 1.7
    assert np.allclose(eigendecompose(h + shift * np.eye(8)).energies,
                       eigendecompose(h).energies + shift, atol=1e-12)


def test_residual_and_orthonormality_random_eight_by_eight():
    rng = np.random.default_rng(11)
    h = rng.uniform(-1, 1, (8, 8))
    h = (h + h.T) / 2
    data = eigendecompose(h)
    residual = np.abs(h @ data.vectors - data.vectors * data.energies[None, :]).max()
    gram_defect = np.abs(data.vectors.T @ data.vectors - np.eye(8)).max()
    assert residual < 1e-12
    assert gram_defect < 1e-12


def test_sign_gauge_deterministic():
    rng = np.random.default_rng(5)
    h = rng.uniform(-1, 1, (6, 6))
    h = (h + h.T) / 2
    a = eigendecompose(h).vectors
    b = eigendecompose(h.copy()).vectors
    assert np.array_equal(a, b)
    # first significant component of every column is positive
    for col in a.T:
        pivot = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
        assert pivot > 0


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_hermitian_gate_is_1e_12_of_the_scale_and_rejects_nan():
    h = build_laplacian(LatticeSpec(1, 4, "dirichlet"))  # scale 1
    inside = h.copy()
    inside[0, 1] += 0.9e-12
    eigendecompose(inside)
    outside = h.copy()
    outside[0, 1] += 1.1e-12
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(outside)
    h[2, 2] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(h)


def test_bounds_violation_detected():
    with pytest.raises(RuntimeError, match="bounds"):
        eigendecompose(np.diag([0.0, 5.0]), bounds=(-1.0, 1.0))


def test_dos_counting_single_realization():
    lattice = LatticeSpec(1, 4, "periodic")
    data = eigendecompose(build_laplacian(lattice), bounds=(-2.0, 2.0))
    edges = np.array([-2.5, -1.0, 1.0, 2.5])
    dos = dos_histogram([data], edges)
    assert np.allclose(dos.mean_mass, [0.25, 0.5, 0.25])
    assert dos.mean_mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_dos_free_chain_matches_plane_wave_counting():
    # eigh output binned = exact dispersion values binned, and the band edges
    # carry the inverse-square-root enhancement over the band centre; edge
    # count chosen so no bin edge collides with an exact eigenvalue
    lattice = LatticeSpec(1, 512, "periodic")
    data = eigendecompose(build_laplacian(lattice), bounds=(-2.0, 2.0))
    edges = np.linspace(-2.0 - 1e-7, 2.0 + 1e-7, 34)
    dos = dos_histogram([data], edges)
    exact, _ = np.histogram(plane_wave_energies(lattice), bins=edges)
    assert np.allclose(dos.mean_mass, exact / lattice.site_count, atol=1e-12)
    centre = dos.mean_mass[16]
    assert dos.mean_mass[0] > 2.0 * centre
    assert dos.mean_mass[-1] > 2.0 * centre


def test_dos_requires_covering_bins():
    lattice = LatticeSpec(1, 8, "periodic")
    data = eigendecompose(build_laplacian(lattice), bounds=(-2.0, 2.0))
    with pytest.raises(ValueError, match="cover"):
        dos_histogram([data], np.linspace(-1.0, 2.0, 8))


def _dos_batch(lattice, spec, count, edges=None, negate=False):
    batch = []
    bounds = spectral_bounds(spec, lattice)
    kin = None
    for index in range(count):
        potential = sample_potential(spec.with_index(index), lattice)
        h = build_hamiltonian(lattice, potential)
        if negate:
            h = -h
        batch.append(eigendecompose(h, bounds=bounds))
    return batch


def test_dos_even_under_symmetric_law():
    # bipartite symmetry: the averaged DOS of H and of -H agree within noise
    lattice = LatticeSpec(1, 32)
    spec = DisorderSpec(strength=1.5, seed=17)
    edges = energy_bins(spectral_bounds(spec, lattice), lattice.site_count)
    plus = dos_histogram(_dos_batch(lattice, spec, 80), edges)
    minus = dos_histogram(_dos_batch(lattice, spec, 80, negate=True), edges)
    tol = 3.0 * np.hypot(plus.stderr_mass, minus.stderr_mass) + 1e-12
    assert np.all(np.abs(plus.mean_mass - minus.mean_mass[::-1]) <= tol)


def test_wegner_bound_holds_on_average():
    lattice = LatticeSpec(1, 64)
    spec = DisorderSpec(strength=5.0, seed=23)
    edges = energy_bins(spectral_bounds(spec, lattice), lattice.site_count)
    dos = dos_histogram(_dos_batch(lattice, spec, 200), edges)
    report = wegner_check(dos, spec)
    assert report.passed
    assert report.bound == pytest.approx(0.1)
    assert report.worst_margin < 0


def test_wegner_densities_shrink_with_strength_on_fixed_bins():
    lattice = LatticeSpec(1, 32)
    big = DisorderSpec(strength=50.0, seed=2)
    edges = energy_bins(spectral_bounds(big, lattice), lattice.site_count)
    small_dos = dos_histogram(_dos_batch(lattice, DisorderSpec(strength=5.0, seed=2), 40),
                              edges)
    big_dos = dos_histogram(_dos_batch(lattice, big, 40), edges)
    assert big_dos.density.max() < small_dos.density.max()


def test_wegner_single_realization_can_exceed():
    # the estimate bounds the expectation only; this realization overshoots
    lattice = LatticeSpec(1, 8)
    spec = DisorderSpec(strength=4.0, seed=36)
    edges = energy_bins(spectral_bounds(spec, lattice), lattice.site_count)
    dos = dos_histogram(_dos_batch(lattice, spec, 1), edges)
    assert dos.density.max() > spec.density_sup / spec.strength


def test_wegner_rejects_zero_strength():
    lattice = LatticeSpec(1, 8)
    spec = DisorderSpec(strength=0.0, seed=1)
    edges = energy_bins((-2.0, 2.0), 8)
    dos = dos_histogram(_dos_batch(lattice, spec, 2), edges)
    with pytest.raises(ValueError, match="lambda"):
        wegner_check(dos, spec)
