import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aclab import (
    DisorderSpec,
    LatticeSpec,
    build_hamiltonian,
    dos_histogram,
    eigendecompose,
    energy_bins,
    sample_potential,
    spectral_bounds,
    wegner_check,
)
from aclab.spectral import subtract_hopping

from conftest import build_laplacian, lattices, plane_wave_energies


def test_hamiltonian_zero_potential_is_kinetic():
    lattice = LatticeSpec(1, 6)
    assert np.array_equal(build_hamiltonian(lattice, np.zeros(6)),
                          build_laplacian(lattice))


def test_hamiltonian_two_site_assembly():
    lattice = LatticeSpec(1, 2, "dirichlet")
    h = build_hamiltonian(lattice, np.array([0.3, -0.8]))
    assert np.array_equal(h, [[0.3, -1.0], [-1.0, -0.8]])


@settings(max_examples=60, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0]), st.integers(0, 2**32 - 1))
@example(LatticeSpec(1, 2, "periodic"), 1.0, 0)  # doubled bonds: entries of -2
@example(LatticeSpec(3, 2, "periodic"), 1.0, 0)
@example(LatticeSpec(2, 2, "dirichlet"), 0.0, 0)
def test_hamiltonian_from_bonds_is_the_dense_sum_bit_for_bit(lattice, strength, seed):
    # the bond list against build_laplacian + diag(V); a clean potential holds
    # -0.0 where a draw is negative, which 0 + V turns into +0.0
    potential = sample_potential(DisorderSpec(strength=strength, seed=seed), lattice)
    dense = build_laplacian(lattice)
    dense[np.diag_indices_from(dense)] += potential
    assert build_hamiltonian(lattice, potential).tobytes() == dense.tobytes()


def test_hamiltonian_size_mismatch():
    with pytest.raises(ValueError, match="shape"):
        build_hamiltonian(LatticeSpec(1, 4), np.zeros(5))


def test_two_by_two_closed_form():
    energies = eigendecompose(LatticeSpec(1, 2, "dirichlet"), np.zeros(2)).energies
    assert np.allclose(energies, [-1.0, 1.0], atol=1e-15)


def test_free_ring_energies():
    lattice = LatticeSpec(1, 4, "periodic")
    data = eigendecompose(lattice, np.zeros(4))
    assert np.allclose(data.energies, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


EIGHT_SITES = LatticeSpec(3, 2, "dirichlet")


def test_identity_shift_invariance():
    potential = np.random.default_rng(3).uniform(-1, 1, 8)
    shift = 1.7
    assert np.allclose(eigendecompose(EIGHT_SITES, potential + shift).energies,
                       eigendecompose(EIGHT_SITES, potential).energies + shift, atol=1e-12)


def test_residual_and_orthonormality_random_eight_by_eight():
    potential = np.random.default_rng(11).uniform(-1, 1, 8)
    h = build_hamiltonian(EIGHT_SITES, potential)
    data = eigendecompose(EIGHT_SITES, potential)
    residual = np.abs(h @ data.vectors - data.vectors * data.energies[None, :]).max()
    gram_defect = np.abs(data.vectors.T @ data.vectors - np.eye(8)).max()
    assert residual < 1e-12
    assert gram_defect < 1e-12
    assert data.residual < 1e-12
    assert data.orthonormality < 1e-12


def test_eigenvectors_deterministic():
    lattice = LatticeSpec(1, 6, "periodic")
    potential = np.random.default_rng(5).uniform(-1, 1, 6)
    a = eigendecompose(lattice, potential).vectors
    b = eigendecompose(lattice, potential.copy()).vectors
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0, 7.0]), st.integers(0, 2**32 - 1))
@example(LatticeSpec(3, 2, "periodic"), 0.0, 0)  # doubled bonds on every axis
@example(LatticeSpec(2, 2, "dirichlet"), 1.0, 0)
def test_stencil_residual_matches_the_dense_residual(lattice, strength, seed):
    spec = DisorderSpec(strength=strength, seed=seed)
    potential = sample_potential(spec, lattice)
    data = eigendecompose(lattice, potential)
    h = build_hamiltonian(lattice, potential)
    scale = max(np.abs(h).max(), 1.0)
    dense = h @ data.vectors - data.vectors * data.energies[None, :]
    stencil = potential[:, None] * data.vectors
    subtract_hopping(lattice, stencil, data.vectors)
    stencil -= data.vectors * data.energies[None, :]
    assert np.abs(stencil - dense).max() <= 1e-14 * scale
    assert abs(data.residual - np.abs(dense).max()) <= 1e-14 * scale
    gram = data.vectors.T @ data.vectors - np.eye(lattice.site_count)
    assert abs(data.orthonormality - np.abs(gram).max()) <= 1e-15


def test_subtract_hopping_refuses_an_out_it_would_copy():
    # reshaping an F-ordered out copies it, so the subtraction would be lost
    lattice = LatticeSpec(3, 4, "periodic")
    x = np.random.default_rng(3).standard_normal((64, 64))
    out = np.zeros((64, 64))
    subtract_hopping(lattice, out, x)
    assert np.abs(out - build_laplacian(lattice) @ x).max() <= 1e-13
    for copied in (out.T, np.asfortranarray(out), out[:, ::2]):
        before = copied.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            subtract_hopping(lattice, copied, x[:, :copied.shape[1]])
        assert np.array_equal(copied, before)


def _perturb_entry(vectors):
    vectors[1, 2] += 1e-8


def _scale_column(vectors):
    # the residual scales with the column and stays far below its gate
    vectors[:, 1] *= 1.0 + 1e-9


@pytest.mark.parametrize("corrupt, message", [(_perturb_entry, "eigen residual"),
                                              (_scale_column, "orthonormality")],
                         ids=["perturbed-entry", "scaled-column"])
@pytest.mark.parametrize("lattice", [LatticeSpec(1, 8, "periodic"),
                                     LatticeSpec(2, 3, "dirichlet"),
                                     LatticeSpec(3, 2, "periodic")],
                         ids=["d1-periodic", "d2-dirichlet", "d3-L2-periodic"])
def test_gates_catch_a_corrupted_eigenbasis(monkeypatch, lattice, corrupt, message):
    potential = sample_potential(DisorderSpec(strength=1.0, seed=4), lattice)
    eigendecompose(lattice, potential)
    original = np.linalg.eigh

    def corrupted(a, *args, **kwargs):
        energies, vectors = original(a, *args, **kwargs)
        corrupt(vectors)
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(RuntimeError, match=message):
        eigendecompose(lattice, potential)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_potential(bad):
    lattice = LatticeSpec(1, 4, "dirichlet")
    potential = np.zeros(4)
    potential[2] = bad
    with pytest.raises(ValueError, match="finite"):
        eigendecompose(lattice, potential)


def test_bounds_violation_detected():
    with pytest.raises(RuntimeError, match="bounds"):
        eigendecompose(LatticeSpec(1, 2, "dirichlet"), np.array([0.0, 5.0]),
                       bounds=(-1.0, 1.0))


def test_dos_counting_single_realization():
    lattice = LatticeSpec(1, 4, "periodic")
    data = eigendecompose(lattice, np.zeros(4), bounds=(-2.0, 2.0))
    edges = np.array([-2.5, -1.0, 1.0, 2.5])
    dos = dos_histogram([data], edges)
    assert np.allclose(dos.mean_mass, [0.25, 0.5, 0.25])
    assert dos.mean_mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_dos_free_chain_matches_plane_wave_counting():
    # eigh output binned = exact dispersion values binned, and the band edges
    # carry the inverse-square-root enhancement over the band centre; edge
    # count chosen so no bin edge collides with an exact eigenvalue
    lattice = LatticeSpec(1, 512, "periodic")
    data = eigendecompose(lattice, np.zeros(512), bounds=(-2.0, 2.0))
    edges = np.linspace(-2.0 - 1e-7, 2.0 + 1e-7, 34)
    dos = dos_histogram([data], edges)
    exact, _ = np.histogram(plane_wave_energies(lattice), bins=edges)
    assert np.allclose(dos.mean_mass, exact / lattice.site_count, atol=1e-12)
    centre = dos.mean_mass[16]
    assert dos.mean_mass[0] > 2.0 * centre
    assert dos.mean_mass[-1] > 2.0 * centre


def test_dos_requires_covering_bins():
    lattice = LatticeSpec(1, 8, "periodic")
    data = eigendecompose(lattice, np.zeros(8), bounds=(-2.0, 2.0))
    with pytest.raises(ValueError, match="cover"):
        dos_histogram([data], np.linspace(-1.0, 2.0, 8))


def _dos_batch(lattice, spec, count, edges=None, negate=False):
    # negate: the spectrum of -H.  On a bipartite box the staggered sign flip
    # maps the kinetic matrix to its negative, so -H has the spectrum of K - V.
    batch = []
    bounds = spectral_bounds(spec, lattice)
    for index in range(count):
        potential = sample_potential(spec.with_index(index), lattice)
        batch.append(eigendecompose(lattice, -potential if negate else potential,
                                    bounds=bounds))
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
