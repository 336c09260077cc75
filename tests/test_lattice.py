import numpy as np
import pytest

from aclab import LatticeSpec, build_laplacian, build_velocity, position_values
from aclab.lattice import plane_wave_energies


def test_two_site_chain_single_bond():
    spec = LatticeSpec(1, 2, "dirichlet")
    assert np.array_equal(build_laplacian(spec), [[0.0, -1.0], [-1.0, 0.0]])


def test_periodic_ring_spectrum_matches_plane_waves():
    spec = LatticeSpec(1, 4, "periodic")
    eigenvalues = np.sort(np.linalg.eigvalsh(build_laplacian(spec)))
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4))
    assert np.allclose(eigenvalues, expected, atol=1e-14)
    assert np.allclose(eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("d,L", [(1, 8), (2, 5), (3, 3)])
def test_periodic_spectrum_formula_any_dimension(d, L):
    spec = LatticeSpec(d, L, "periodic")
    eigenvalues = np.sort(np.linalg.eigvalsh(build_laplacian(spec)))
    assert np.allclose(eigenvalues, np.sort(plane_wave_energies(spec)), atol=1e-12)


def test_coordination_number_2d():
    spec = LatticeSpec(2, 3, "periodic")
    kin = build_laplacian(spec)
    for row in kin:
        off = row[row != 0.0]
        assert len(off) == 4
        assert np.all(off == -1.0)


def test_operators_hermitian():
    for boundary in ("periodic", "dirichlet"):
        spec = LatticeSpec(2, 4, boundary)
        kin = build_laplacian(spec)
        vel = build_velocity(spec)
        assert np.array_equal(kin, kin.T)
        assert np.array_equal(vel, vel.conj().T)


def test_velocity_purely_imaginary():
    vel = build_velocity(LatticeSpec(2, 4, "periodic"))
    assert np.all(vel.real == 0.0)


def test_velocity_on_delta_function():
    # applying to delta_0 gives +i at the forward neighbour, -i at the backward
    spec = LatticeSpec(1, 5, "periodic")
    delta = np.zeros(5)
    delta[0] = 1.0
    image = build_velocity(spec) @ delta
    expected = np.zeros(5, dtype=complex)
    expected[1] = 1j
    expected[4] = -1j
    assert np.array_equal(image, expected)


def test_velocity_two_site_dirichlet():
    vel = build_velocity(LatticeSpec(1, 2, "dirichlet"))
    assert np.array_equal(vel, [[0, -1j], [1j, 0]])


def test_velocity_independent_of_potential():
    # the builder takes no potential at all; same spec gives the same matrix
    spec = LatticeSpec(1, 6, "dirichlet")
    assert np.array_equal(build_velocity(spec), build_velocity(spec))


def test_position_two_site_centering():
    pos = position_values(LatticeSpec(1, 2, "dirichlet"))
    assert np.array_equal(pos, [-0.5, 0.5])


def test_position_rejects_periodic():
    with pytest.raises(ValueError, match="dirichlet"):
        position_values(LatticeSpec(1, 4, "periodic"))


def test_velocity_is_commutator_on_open_box():
    rng = np.random.default_rng(7)
    for d, L in ((1, 6), (2, 4)):
        spec = LatticeSpec(d, L, "dirichlet")
        h = build_laplacian(spec) + np.diag(rng.uniform(-1, 1, spec.site_count))
        x1 = np.diag(position_values(spec))
        commutator = 1j * (h @ x1 - x1 @ h)
        assert np.allclose(commutator, build_velocity(spec), atol=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError, match="linear_size"):
        LatticeSpec(1, 1, "periodic")
    with pytest.raises(ValueError, match="dimension"):
        LatticeSpec(0, 4, "periodic")
    with pytest.raises(ValueError, match="boundary"):
        LatticeSpec(1, 4, "open")


def test_site_indexing_bijection():
    spec = LatticeSpec(2, 3, "periodic")
    coords = spec.coordinates()
    assert coords.shape == (9, 2)
    # row-major: flat index = x1 * L + x2
    flat = coords[:, 0] * 3 + coords[:, 1]
    assert np.array_equal(flat, np.arange(9))
