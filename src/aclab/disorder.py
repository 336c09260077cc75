"""I.i.d. on-site disorder with reproducible, counter-based random streams.

Potential fields are plain float arrays of length site_count holding the
already-scaled values lambda * v(x).  Streams are keyed on
(seed, realization_index) through a Philox counter generator, so distinct
realizations are independent by construction and any execution order
reproduces identical draws bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeSpec


@dataclass(frozen=True)
class DisorderSpec:
    """Single-site law (uniform on [v_minus, v_plus]), strength, and stream key."""

    v_minus: float = -1.0
    v_plus: float = 1.0
    strength: float = 1.0
    seed: int = 0
    realization_index: int = 0

    def __post_init__(self):
        if not self.v_minus < self.v_plus:
            raise ValueError(
                f"single-site support must be nondegenerate: v_minus={self.v_minus} "
                f"v_plus={self.v_plus}"
            )
        if self.strength < 0:
            raise ValueError(f"strength must be >= 0, got {self.strength}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if int(self.realization_index) < 0:
            raise ValueError("realization_index must be >= 0")

    @property
    def density_sup(self) -> float:
        """Sup of the single-site density: 1 / (v_plus - v_minus) for the uniform law."""
        return 1.0 / (self.v_plus - self.v_minus)

    def with_index(self, index: int) -> "DisorderSpec":
        return replace(self, realization_index=index)

    def with_strength(self, strength: float) -> "DisorderSpec":
        return replace(self, strength=strength)


def _stream(spec: DisorderSpec) -> np.random.Generator:
    # 128-bit Philox key = (seed << 64) | realization_index: distinct keys give
    # non-overlapping streams regardless of how many sites each realization draws.
    key = (int(spec.seed) << 64) + int(spec.realization_index)
    return np.random.Generator(np.random.Philox(key=key))


def sample_potential(spec: DisorderSpec, lattice: LatticeSpec) -> np.ndarray:
    """Draw the scaled potential lambda * v(x) for every site, deterministically."""
    draws = _stream(spec).uniform(spec.v_minus, spec.v_plus, size=lattice.site_count)
    return spec.strength * draws


def spectral_bounds(spec: DisorderSpec, lattice: LatticeSpec) -> tuple[float, float]:
    """Deterministic enclosure [E_-, E_+] of every finite-volume eigenvalue.

    E_- = -2d + lambda v_-, E_+ = 2d + lambda v_+.
    """
    d = lattice.dimension
    return (
        -2.0 * d + spec.strength * spec.v_minus,
        2.0 * d + spec.strength * spec.v_plus,
    )
