import numpy as np
import pytest
from hypothesis import strategies as st

from aclab import (
    DisorderSpec,
    LatticeSpec,
    eigendecompose,
    pair_spectrum,
    sample_potential,
    spectral_bounds,
    sum_rule_lhs,
    sum_rule_rhs,
    twist_drift,
)
from aclab.lattice import PERIODIC
from aclab.verify import TWISTED_SUM_RULE_TOL

MASTER_SEED = 20240811


@pytest.fixture
def two_site():
    """Free 2-site open chain: H = [[0,-1],[-1,0]], spectrum {-1, +1}."""
    lattice = LatticeSpec(dimension=1, linear_size=2, boundary="dirichlet")
    disorder = DisorderSpec(strength=0.0, seed=MASTER_SEED)
    data = eigendecompose(lattice, np.zeros(2), bounds=spectral_bounds(disorder, lattice))
    ps = pair_spectrum(data, lattice)
    return lattice, disorder, data, ps


def make_pair_spectrum(lattice, disorder, index=0):
    """One seeded realization, diagonalized, with its velocity pair table."""
    spec = disorder.with_index(index)
    data = eigendecompose(lattice, sample_potential(spec, lattice),
                          bounds=spectral_bounds(spec, lattice))
    return data, pair_spectrum(data, lattice)


# Dense oracles for the stencil routes, which build neither matrix.
def build_laplacian(spec: LatticeSpec) -> np.ndarray:
    """Kinetic matrix with -1 on every nearest-neighbour bond.

    Periodic boundaries wrap (an L=2 ring carries a doubled bond, consistent
    with the plane-wave spectrum); dirichlet drops out-of-box couplings.
    """
    n = spec.site_count
    kin = np.zeros((n, n))
    rows = np.arange(n)
    for axis in range(spec.dimension):
        for step in (+1, -1):
            target = spec.neighbor_shift(axis, step)
            ok = target >= 0
            kin[rows[ok], target[ok]] -= 1.0
    return kin


def build_velocity(spec: LatticeSpec) -> np.ndarray:
    """Velocity operator along axis 0: amplitude -i forward, +i backward.

    Hermitian with purely imaginary entries; independent of any on-site
    potential.
    """
    n = spec.site_count
    vel = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for step, amp in ((+1, -1j), (-1, +1j)):
        target = spec.neighbor_shift(0, step)
        ok = target >= 0
        vel[rows[ok], target[ok]] += amp
    return vel


def plane_wave_energies(spec: LatticeSpec) -> np.ndarray:
    """Exact periodic kinetic spectrum -2 sum_i cos(2 pi j_i / L), unsorted."""
    if spec.boundary != PERIODIC:
        raise ValueError("plane waves require periodic boundary")
    k = 2.0 * np.pi * spec.coordinates() / spec.linear_size
    return -2.0 * np.cos(k).sum(axis=1)


MAX_SIZE = {1: 16, 2: 6, 3: 4}


@st.composite
def lattices(draw):
    """A box of dimension 1..3 and size 2..MAX_SIZE[d], either boundary."""
    d = draw(st.integers(1, 3))
    return LatticeSpec(d, draw(st.integers(2, MAX_SIZE[d])),
                       draw(st.sampled_from(["periodic", "dirichlet"])))


def plane_wave_atom(length, p):
    """Closed-form clean-chain atom: (pi/L) sum_k 4 sin^2(k) (-f)'(-2 cos k)."""
    from aclab import fermi_derivative_neg

    k = 2.0 * np.pi * np.arange(length) / length
    return np.pi / length * np.sum(
        4.0 * np.sin(k) ** 2 * fermi_derivative_neg(-2.0 * np.cos(k), p))


def sum_rule_gap(record, lattice, p):
    """|Sigma(R) - 2 pi <f(H)_(x+e1,x)> + twist drift| of a periodic record, and its scale.

    The scale and the harmonic tolerance are the ones verify's sum_rule uses;
    an unresolved twist series reads an infinite gap.
    """
    lhs = sum_rule_lhs(record.pairs, p)[0]
    rhs, scale = sum_rule_rhs(record.spectral, lattice, p)
    bound = max(lhs, scale)
    drift, _ = twist_drift(lattice, record.potential, p, 0.1 * TWISTED_SUM_RULE_TOL * bound)
    return (np.inf if drift is None else abs(lhs - rhs + drift)), bound
