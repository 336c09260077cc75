import numpy as np
import pytest
from scipy import stats

from aclab import DisorderSpec, LatticeSpec, sample_potential, spectral_bounds
from aclab.spectral import eigendecompose


def test_zero_strength_gives_zero_potential():
    spec = DisorderSpec(strength=0.0, seed=1)
    values = sample_potential(spec, LatticeSpec(1, 16))
    assert np.all(values == 0.0)


def test_support_containment_and_rough_symmetry():
    spec = DisorderSpec(strength=3.0, seed=5)
    lattice = LatticeSpec(2, 32)  # 1024 sites
    values = sample_potential(spec, lattice)
    assert values.min() >= -3.0
    assert values.max() <= 3.0
    assert abs(values.mean()) < 3.0 / np.sqrt(lattice.site_count) * 4


def test_same_key_reproduces_bitwise():
    lattice = LatticeSpec(1, 64)
    spec = DisorderSpec(strength=1.0, seed=42, realization_index=7)
    assert np.array_equal(sample_potential(spec, lattice),
                          sample_potential(spec, lattice))


def test_distinct_indices_differ():
    lattice = LatticeSpec(1, 64)
    spec = DisorderSpec(strength=1.0, seed=42)
    a = sample_potential(spec.with_index(0), lattice)
    b = sample_potential(spec.with_index(1), lattice)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.3


def test_sampler_matches_uniform_law():
    # KS distance against the uniform CDF at 10^4 sites; threshold 0.02
    lattice = LatticeSpec(1, 10000)
    spec = DisorderSpec(strength=1.0, seed=11)
    values = sample_potential(spec, lattice)
    result = stats.kstest(values, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert result.statistic < 0.02


def test_spectral_bounds_examples():
    assert spectral_bounds(DisorderSpec(strength=0.0), LatticeSpec(1, 8)) == (-2.0, 2.0)
    assert spectral_bounds(DisorderSpec(strength=3.0), LatticeSpec(2, 4)) == (-7.0, 7.0)


def test_all_eigenvalues_inside_bounds():
    lattice = LatticeSpec(1, 24)
    spec = DisorderSpec(strength=2.5, seed=3)
    lo, hi = spectral_bounds(spec, lattice)
    for index in range(50):
        potential = sample_potential(spec.with_index(index), lattice)
        energies = eigendecompose(lattice, potential).energies
        assert energies[0] >= lo - 1e-12
        assert energies[-1] <= hi + 1e-12


def test_validation():
    with pytest.raises(ValueError, match="strength"):
        DisorderSpec(strength=-1.0)
    with pytest.raises(ValueError, match="nondegenerate"):
        DisorderSpec(v_minus=1.0, v_plus=1.0)


def test_density_sup_uniform():
    assert DisorderSpec().density_sup == 0.5
