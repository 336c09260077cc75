"""Finite-box lattice geometry and the kinetic, velocity, and position operators.

Conventions
-----------
Sites of the box {0, ..., L-1}^d are enumerated in row-major (C) order: the
site with coordinates (x_1, ..., x_d) has flat index
x_1 * L^(d-1) + x_2 * L^(d-2) + ... + x_d, and axis 0 is the transport
direction ("first coordinate").

The kinetic matrix couples nearest neighbours with amplitude -1, so its
periodic plane-wave dispersion is eps(k) = -2 sum_i cos(k_i) with
k_i = 2 pi j_i / L.  The velocity operator along axis 0 is the hopping form
(v phi)(x) = -i (phi(x + e1) - phi(x - e1)), which on an open box equals the
commutator i[H, X1] exactly; its periodic plane-wave eigenvalue is the group
velocity 2 sin(k_1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class LatticeSpec:
    """Finite box Lambda = {0..L-1}^d with periodic or open (dirichlet) boundary."""

    dimension: int
    linear_size: int
    boundary: str = PERIODIC

    def __post_init__(self):
        if int(self.dimension) < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if int(self.linear_size) < 2:
            raise ValueError(f"linear_size must be >= 2, got {self.linear_size}")
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ValueError(
                f"boundary must be {PERIODIC!r} or {DIRICHLET!r}, got {self.boundary!r}"
            )

    @property
    def site_count(self) -> int:
        return self.linear_size ** self.dimension

    @property
    def shape(self) -> tuple:
        return (self.linear_size,) * self.dimension

    def coordinates(self) -> np.ndarray:
        """Integer coordinates of every site, shape (site_count, d), row-major order."""
        idx = np.arange(self.site_count)
        return np.stack(np.unravel_index(idx, self.shape), axis=1)

    @functools.cache
    def neighbor_shift(self, axis: int, step: int) -> np.ndarray:
        """Flat index of x + step*e_axis for every site x, read-only and memoized.

        Periodic boundaries wrap modulo L; dirichlet marks out-of-box targets
        with -1.
        """
        coords = self.coordinates()
        coords[:, axis] += step
        if self.boundary == PERIODIC:
            coords[:, axis] %= self.linear_size
        inside = (coords[:, axis] >= 0) & (coords[:, axis] < self.linear_size)
        out = np.full(self.site_count, -1, dtype=np.intp)
        out[inside] = np.ravel_multi_index(tuple(coords[inside].T), self.shape)
        out.setflags(write=False)
        return out

    @functools.cache
    def bonds(self) -> tuple[np.ndarray, np.ndarray]:
        """The kinetic matrix's nonzero entries: flat indices x * site_count + y and values.

        -1 per nearest-neighbour bond; an L=2 ring meets its neighbour along an
        axis twice, so that entry is -2.  O(d site_count) memory, read-only and
        memoized.
        """
        n = self.site_count
        sites = np.arange(n)
        flat = []
        for axis in range(self.dimension):
            for step in (+1, -1):
                target = self.neighbor_shift(axis, step)
                inside = target >= 0
                flat.append(sites[inside] * n + target[inside])
        index, counts = np.unique(np.concatenate(flat), return_counts=True)
        values = -counts.astype(float)
        index.setflags(write=False)
        values.setflags(write=False)
        return index, values


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


def velocity_norm2(spec: LatticeSpec) -> float:
    """||v||_F^2 of build_velocity(spec), in O(site_count): its count of unit entries.

    Each in-box forward neighbour gives one entry and its backward partner
    another; on an L=2 ring the two amplitudes meet on one entry and cancel.
    """
    forward, backward = spec.neighbor_shift(0, +1), spec.neighbor_shift(0, -1)
    return float(2 * np.count_nonzero((forward >= 0) & (forward != backward)))


def position_values(spec: LatticeSpec) -> np.ndarray:
    """Diagonal of the first-coordinate operator X1, centred at the box midpoint.

    Values lie in {-(L-1)/2, ..., +(L-1)/2}.  Only defined on an open box; a
    torus has no single-valued coordinate.
    """
    if spec.boundary != DIRICHLET:
        raise ValueError("position operator requires dirichlet boundary")
    return spec.coordinates()[:, 0] - (spec.linear_size - 1) / 2.0


def plane_wave_energies(spec: LatticeSpec) -> np.ndarray:
    """Exact periodic kinetic spectrum -2 sum_i cos(2 pi j_i / L), unsorted."""
    if spec.boundary != PERIODIC:
        raise ValueError("plane waves require periodic boundary")
    k = 2.0 * np.pi * spec.coordinates() / spec.linear_size
    return -2.0 * np.cos(k).sum(axis=1)
