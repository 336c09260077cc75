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


def fermi_derivative_neg(energy, p: ThermoParams):
    """(-f)'(E) = e^x / (T (e^x + 1)^2) with x = (E - mu)/T; peak 1/(4T) at E = mu."""
    if p.temperature == 0.0:
        raise ValueError("(-f)' is distributional at T = 0; use the step branch instead")
    x = (np.asarray(energy, dtype=float) - p.fermi_level) / p.temperature
    out = _logistic(x) * _logistic(-x) / p.temperature
    return out if out.ndim else float(out)


def pair_weight(e_n, e_m, p: ThermoParams, eps_deg: float):
    """Difference-quotient weight (f(E_m) - f(E_n)) / (E_n - E_m) for one eigenpair.

    Pairs closer than eps_deg take the tangent value (-f)'((E_n + E_m)/2) when
    T > 0 and 0 at T = 0 (degenerate pairs feed the zero-frequency atom, which
    at T = 0 is handled by the diagonal measure instead).  Always >= 0 and
    symmetric under swapping the arguments.
    """
    e_n = np.asarray(e_n, dtype=float)
    e_m = np.asarray(e_m, dtype=float)
    gap = e_n - e_m
    degenerate = np.abs(gap) <= eps_deg
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (fermi(e_m, p) - fermi(e_n, p)) / gap
    if p.temperature == 0.0:
        tangent = np.zeros_like(gap)
    else:
        tangent = fermi_derivative_neg(0.5 * (e_n + e_m), p)
    out = np.where(degenerate, tangent, quotient)
    return out if out.ndim else float(out)


def sech2(x):
    """Overflow-safe sech^2."""
    ax = np.abs(np.asarray(x, dtype=float))
    e = np.exp(-ax)
    s = 2.0 * e / (1.0 + e * e)
    out = s * s
    return out if out.ndim else float(out)


def c_mu_t(p: ThermoParams, bounds: tuple[float, float]) -> float:
    """Infimum of sech^2((E - mu)/(2T)) over E in [E_- - E_+, E_+ - E_-].

    The interval is symmetric, [-D, D] with D = E_+ - E_-, so the infimum sits
    at the endpoint farthest from mu.  The scale 2T of the sech argument
    matches the actual minimum of 4T (-f)' over the interval, so the lower
    sandwich bound is sharp.
    """
    if p.temperature <= 0:
        raise ValueError("c_mu_t requires T > 0")
    e_minus, e_plus = bounds
    diameter = e_plus - e_minus
    if diameter <= 0:
        raise ValueError("bounds must satisfy E_- < E_+")
    farthest = diameter + abs(p.fermi_level)
    return sech2(farthest / (2.0 * p.temperature))
