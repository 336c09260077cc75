"""Fermi weights and the temperature-dependent constants of the measure bounds.

All functions accept scalars or numpy arrays for the energy arguments and are
overflow-safe for arbitrarily large |E - mu| / T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _logistic(x):
    """1 / (1 + e^-x); below x = -709.8 e^-x overflows to inf, giving 0 without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class ThermoParams:
    """Absolute temperature T >= 0 and Fermi level mu; T = 0 selects the step branch."""

    temperature: float
    fermi_level: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


def fermi(energy, p: ThermoParams):
    """Occupation f(E): logistic for T > 0, indicator of E <= mu at T = 0."""
    energy = np.asarray(energy, dtype=float)
    if p.temperature == 0.0:
        out = (energy <= p.fermi_level).astype(float)
    else:
        out = _logistic(-(energy - p.fermi_level) / p.temperature)
    return out if out.ndim else float(out)


def grand_potential(energy, p: ThermoParams):
    """G = min(E - mu, 0) - T log1p(e^-|E - mu|/T) = -T log(1 + e^-(E - mu)/T), so G' = f."""
    gap = np.asarray(energy, dtype=float) - p.fermi_level
    if p.temperature == 0.0:
        return np.minimum(gap, 0.0)
    with np.errstate(over="ignore"):  # |gap| / T past the float range is inf; e^-inf is 0
        tail = np.exp(-np.abs(gap) / p.temperature)
    return np.minimum(gap, 0.0) - p.temperature * np.log1p(tail)


def fermi_derivative_neg(energy, p: ThermoParams):
    """(-f)'(E) = e^x / (T (e^x + 1)^2) with x = (E - mu)/T; peak 1/(4T) at E = mu."""
    if p.temperature == 0.0:
        raise ValueError("(-f)' is distributional at T = 0; use the step branch instead")
    x = (np.asarray(energy, dtype=float) - p.fermi_level) / p.temperature
    out = _logistic(x) * _logistic(-x) / p.temperature
    return out if out.ndim else float(out)


def pair_weight(energies, low, high, p: ThermoParams):
    """Difference quotient (f(E_low) - f(E_high)) / (E_high - E_low) of eigenpairs.

    low and high index energies, with E_high > E_low pair by pair.  For T > 0
    the numerator is the exact product f_low (1 - f_high) (1 - e^-(E_high -
    E_low)/T): f and 1 - f are logistics of each level and the last factor is
    one expm1 per pair, so no difference of nearly equal numbers is formed
    when both levels are full or both empty.  At T = 0 it is the step
    quotient.  Always in [0, 1/(4T)]; its nu -> 0 limit, (-f)'(E), is the
    conductivity measure's tangent atom.
    """
    energies = np.asarray(energies, dtype=float)
    gap = energies[high] - energies[low]
    if p.temperature == 0.0:
        f = fermi(energies, p)
        return (f[low] - f[high]) / gap
    x = (energies - p.fermi_level) / p.temperature
    full, empty = _logistic(-x), _logistic(x)
    gap = np.maximum(gap, np.finfo(float).tiny * p.temperature)  # keep gap / T normal
    return full[low] * empty[high] * -np.expm1(-gap / p.temperature) / gap


def c_mu_t(p: ThermoParams, bounds: tuple[float, float]) -> float:
    """Infimum of sech^2((E - mu)/(2T)) over E in [E_- - E_+, E_+ - E_-].

    The interval is symmetric, [-D, D] with D = E_+ - E_-, so the infimum sits
    at the endpoint farthest from mu, and 4T (-f)'(E) = sech^2((E - mu)/(2T))
    gives its value.  The scale 2T of the sech argument matches the actual
    minimum of 4T (-f)' over the interval, so the lower sandwich bound is sharp.
    """
    if p.temperature <= 0:
        raise ValueError("c_mu_t requires T > 0")
    e_minus, e_plus = bounds
    diameter = e_plus - e_minus
    if diameter <= 0:
        raise ValueError("bounds must satisfy E_- < E_+")
    farthest = diameter + abs(p.fermi_level)
    return 4.0 * p.temperature * fermi_derivative_neg(p.fermi_level + farthest, p)
