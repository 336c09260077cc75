"""Field pulses, Liouville propagation, and the absorbed-energy routes.

Fourier convention: E(t) = int e^{i nu t} Ehat(nu) d nu, so the built-in
gaussian-cosine pulse E(t) = A exp(-t^2/(2 s^2)) cos(nu0 t) has the closed
transform Ehat(nu) = (A s / (2 sqrt(2 pi)))
(exp(-s^2 (nu - nu0)^2 / 2) + exp(-s^2 (nu + nu0)^2 / 2)), which is real and
even, hence conjugate symmetric.

Propagation uses the length gauge H(t) = H + alpha E(t) X1, which keeps the
velocity operator i[H, X1] time independent.  Each step conjugates the state
by the exact exponential of the midpoint Hamiltonian, so the evolution is
unitary to machine precision and trace / spectrum drift is the honest error
signal.

The field is known in advance, so the midpoint Hamiltonians of a block of
steps are diagonalized by one stacked eigh.  An alpha ladder shares the
equilibrium state and advances as one (rungs, n, n) density matrix; every
rung sees the same operations in the same order as a single-alpha run, so
its samples are bit-identical to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erfcinv

from .conductivity import MeasureHistogram

TRACE_DRIFT_TOL = 1e-10
SPECTRUM_DRIFT_TOL = 1e-8
FIT_TOL = 0.05  # alpha-ladder fit residual, relative to the data scale
# Midpoint steps diagonalized by one stacked eigh; fewer when the block's
# complex (steps, rungs, n, n) buffer would pass _BLOCK_BYTES.
_BLOCK_STEPS = 32
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class FieldPulse:
    """Gaussian-windowed cosine field amplitude; integrable together with its transform."""

    amplitude: float
    width: float
    carrier: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"pulse width must be > 0, got {self.width}")
        if self.carrier < 0:
            raise ValueError(f"carrier frequency must be >= 0, got {self.carrier}")

    def field(self, t):
        t = np.asarray(t, dtype=float)
        out = self.amplitude * np.exp(-t * t / (2.0 * self.width ** 2)) * np.cos(self.carrier * t)
        return out if out.ndim else float(out)

    def fourier(self, nu):
        nu = np.asarray(nu, dtype=float)
        c = self.amplitude * self.width / (2.0 * np.sqrt(2.0 * np.pi))
        s2 = self.width ** 2
        out = c * (np.exp(-s2 * (nu - self.carrier) ** 2 / 2.0)
                   + np.exp(-s2 * (nu + self.carrier) ** 2 / 2.0))
        return out if out.ndim else float(out)

    def time_window(self, tail_fraction: float = 1e-13) -> float:
        """Half-window t_max with envelope tail mass below tail_fraction of the total."""
        return float(np.sqrt(2.0) * self.width * erfcinv(tail_fraction))


@dataclass
class ResponseTrace:
    """Sampled driven evolution: current, instantaneous energy, drift diagnostics.

    A ladder trace has a 1-D alpha and a leading rung axis on current,
    energy, trace_drift and spectrum_drift; rungs() splits it.
    """

    times: np.ndarray
    field: np.ndarray
    current: np.ndarray
    energy: np.ndarray
    alpha: float | np.ndarray
    dt: float
    trace_drift: float | np.ndarray
    spectrum_drift: float | np.ndarray
    meta: dict = field(default_factory=dict)

    def running_work(self) -> np.ndarray:
        return self.energy - self.energy[..., :1]

    def rungs(self) -> tuple:
        """One scalar-alpha trace per rung, in ladder order (views, no copies)."""
        if np.ndim(self.alpha) == 0:
            return (self,)
        steps = self.meta["steps"] // len(self.alpha)
        return tuple(
            replace(self, current=self.current[k], energy=self.energy[k],
                    alpha=float(self.alpha[k]), trace_drift=float(self.trace_drift[k]),
                    spectrum_drift=float(self.spectrum_drift[k]),
                    meta=dict(self.meta, steps=steps))
            for k in range(len(self.alpha)))


def _position_diagonal(position: np.ndarray) -> np.ndarray:
    position = np.asarray(position)
    if position.ndim == 1:
        return position.astype(float)
    off = position - np.diag(np.diagonal(position))
    if np.abs(off).max(initial=0.0) > 0.0:
        raise ValueError("position operator must be diagonal in the site basis")
    return np.diagonal(position).astype(float).copy()


def propagate_liouville(hamiltonian: np.ndarray, position: np.ndarray,
                        pulse: FieldPulse, alpha, p,
                        dt: float | None = None, dt_scale: float = 0.05,
                        t_max: float | None = None,
                        tail_fraction: float = 1e-13) -> ResponseTrace:
    """Evolve rho from the equilibrium state under H + alpha E(t) X1.

    Starts at rho(-t_max) = f(H), steps with U = exp(-i dt H(t + dt/2)), and
    records J(t) = -Tr(rho v)/|Lambda| with v = i[H, X1] plus the
    instantaneous energy Tr(H(t) rho)/|Lambda|.  The step defaults to
    dt_scale / ||H||.  Needs an open box: X1 is passed in as a diagonal
    (or diagonal matrix), which only exists under dirichlet boundary.

    A 1-D alpha is a ladder: every rung starts from the same f(H) and is
    advanced as one stacked state, and the returned trace carries a leading
    rung axis (see ResponseTrace.rungs).  Each rung is bit-identical to a
    scalar-alpha call.

    Raises if the conserved trace or the spectrum of rho drift beyond
    tolerance on any rung; the drift is part of the message.
    """
    from .thermo import fermi  # local import keeps module load order flat

    ladder = np.asarray(alpha, dtype=float)
    if ladder.ndim > 1 or ladder.size == 0:
        raise ValueError(f"alpha must be a scalar or a nonempty 1-D ladder, "
                         f"got shape {ladder.shape}")
    rungs = np.atleast_1d(ladder)
    m = len(rungs)
    h = np.asarray(hamiltonian, dtype=float)
    n = h.shape[0]
    x1 = _position_diagonal(position)
    velocity = 1j * (h * x1[None, :] - x1[:, None] * h)

    energies, basis = np.linalg.eigh(h)
    occupations = fermi(energies, p)
    rho = np.repeat(((basis * occupations) @ basis.T).astype(complex)[None], m, axis=0)

    if t_max is None:
        t_max = pulse.time_window(tail_fraction)
    if dt is None:
        dt = dt_scale / max(np.abs(energies).max(), 1e-12)
    n_steps = max(int(np.ceil(2.0 * t_max / dt)), 1)
    dt = 2.0 * t_max / n_steps
    times = -t_max + dt * np.arange(n_steps + 1)
    field_values = pulse.field(times)
    midpoint_field = pulse.field(times[:-1] + dt / 2.0)
    block = int(np.clip(_BLOCK_BYTES // (16 * m * n * n), 1, _BLOCK_STEPS))

    current = np.empty((m, n_steps + 1))
    energy = np.empty((m, n_steps + 1))
    sites = np.arange(n)

    def record(first, states):
        """Samples first.. of every rung from states shaped (steps, rungs, n, n)."""
        last = first + len(states)
        current[:, first:last] = -np.real(np.einsum("smij,ji->ms", states, velocity)) / n
        shift = (rungs[:, None] * field_values[first:last])[..., None] * x1
        diagonal = np.real(np.diagonal(states, axis1=-2, axis2=-1)).transpose(1, 0, 2)
        energy[:, first:last] = (np.real(np.einsum("ij,smji->ms", h, states))
                                 + np.vecdot(shift, diagonal)) / n

    record(0, rho[None])
    trace0 = np.trace(rho[0]).real
    states = np.empty((block, m, n, n), dtype=complex)
    for first in range(0, n_steps, block):
        coupling = rungs * midpoint_field[first:first + block, None]
        steps = len(coupling)
        stepped = np.zeros((steps, m, n, n))
        stepped[..., sites, sites] = coupling[..., None] * x1
        stepped += h
        w, q = np.linalg.eigh(stepped)
        phased = q * np.exp(-1j * dt * w)[..., None, :]
        for s in range(steps):
            rotated = q[s].swapaxes(-1, -2) @ rho @ q[s]
            rho = np.matmul(phased[s] @ rotated, phased[s].conj().swapaxes(-1, -2),
                            out=states[s])
        record(first + 1, states[:steps])

    trace_drift = np.abs(np.trace(rho, axis1=-2, axis2=-1).real - trace0)
    spectrum_drift = np.abs(np.sort(np.linalg.eigvalsh(rho), axis=-1)
                            - np.sort(occupations)).max(axis=-1)
    trace_tol = TRACE_DRIFT_TOL * max(1.0, abs(trace0))
    worst = int(np.argmax(trace_drift))
    if trace_drift[worst] > trace_tol:
        raise RuntimeError(
            f"trace drift {trace_drift[worst]:.3e} above {trace_tol:.3e} at "
            f"alpha={rungs[worst]:g}; shrink dt"
        )
    worst = int(np.argmax(spectrum_drift))
    if spectrum_drift[worst] > SPECTRUM_DRIFT_TOL:
        raise RuntimeError(
            f"state spectrum drift {spectrum_drift[worst]:.3e} above "
            f"{SPECTRUM_DRIFT_TOL:.3e} at alpha={rungs[worst]:g}; shrink dt"
        )
    trace = ResponseTrace(
        times=times, field=field_values, current=current, energy=energy,
        alpha=rungs, dt=dt, trace_drift=trace_drift, spectrum_drift=spectrum_drift,
        meta={"t_max": t_max, "steps": m * n_steps, "eigh_block": block})
    return trace if ladder.ndim else trace.rungs()[0]


@dataclass(frozen=True)
class EnergyRoutes:
    """Absorbed energy from the current integral and from the energy balance."""

    w_current: float
    w_energy: float

    @property
    def gap(self) -> float:
        return self.w_current - self.w_energy


def absorbed_energy_td(trace: ResponseTrace, pulse: FieldPulse | None = None,
                       alpha: float | None = None) -> EnergyRoutes:
    """Time-domain absorbed energy both ways; the two agree up to step error.

    W_current integrates alpha E(t) J(t) by trapezoid on the stored grid;
    W_energy is the endpoint difference of the instantaneous energy.
    """
    if np.ndim(trace.alpha):
        raise ValueError("ladder trace: pass one of its rungs()")
    if alpha is not None and alpha != trace.alpha:
        raise ValueError(f"trace was run at alpha={trace.alpha}, not {alpha}")
    if pulse is not None:
        expected = pulse.field(trace.times)
        if not np.array_equal(expected, trace.field):
            raise ValueError("trace field samples do not match the supplied pulse")
    w_current = float(np.trapezoid(trace.alpha * trace.field * trace.current, trace.times))
    w_energy = float(trace.energy[-1] - trace.energy[0])
    return EnergyRoutes(w_current=w_current, w_energy=w_energy)


@dataclass(frozen=True)
class ExtractionResult:
    """Quadratic-response intercept of W(alpha)/alpha^2 with fit diagnostics."""

    w_lin: float
    curvature: float
    alphas: np.ndarray
    w_values: np.ndarray
    ratios: np.ndarray
    residual_rel: float
    traces: tuple = field(repr=False)  # one ResponseTrace per alpha, same order

    def ratio_smallest_pair(self) -> float:
        return float(self.ratios[-1])


def linear_response_extract(hamiltonian: np.ndarray, position: np.ndarray,
                            pulse: FieldPulse, p, alphas,
                            **propagate_kwargs) -> ExtractionResult:
    """Fit W(alpha)/alpha^2 = W_lin + c alpha^2 over a decreasing alpha ladder.

    Odd powers are excluded from the model (quadratic leading order).  The
    alphas must be positive, strictly decreasing, and span close to a decade.
    A residual beyond FIT_TOL of the data scale raises instead of silently
    returning a noisy intercept, but only when the intercept itself rises
    above the residual: a pulse off the measure support yields data that is
    pure higher-order dribble and an intercept below noise, which is a valid
    result, not a fit failure.
    """
    alphas = np.asarray(alphas, dtype=float)
    if len(alphas) < 3:
        raise ValueError("need at least 3 alpha values")
    if np.any(alphas <= 0) or np.any(np.diff(alphas) >= 0):
        raise ValueError("alphas must be positive and strictly decreasing")
    if alphas[0] / alphas[-1] < 7.9:
        raise ValueError("alphas must span close to a decade")
    traces = propagate_liouville(hamiltonian, position, pulse, alphas, p,
                                 **propagate_kwargs).rungs()
    w_values = np.array([absorbed_energy_td(trace).w_energy for trace in traces])
    y = w_values / alphas ** 2
    design = np.column_stack([np.ones_like(alphas), alphas ** 2])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    scale = max(np.abs(y).max(), 1e-300)
    residual_abs = float(np.abs(y - fitted).max())
    residual_rel = residual_abs / scale
    if residual_rel > FIT_TOL and abs(coef[0]) > 3.0 * residual_abs:
        raise RuntimeError(
            f"alpha ladder too noisy for quadratic extraction: relative "
            f"residual {residual_rel:.3e} above {FIT_TOL:.3e}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = w_values[:-1] / w_values[1:]
    return ExtractionResult(
        w_lin=float(coef[0]),
        curvature=float(coef[1]),
        alphas=alphas,
        w_values=w_values,
        ratios=ratios,
        residual_rel=residual_rel,
        traces=traces,
    )


def absorbed_energy_lr(sigma: MeasureHistogram, pulse: FieldPulse) -> float:
    """Measure-route absorbed energy 2 pi [atom |Ehat(0)|^2 + sum mass |Ehat|^2]."""
    hat0 = abs(pulse.fourier(0.0)) ** 2
    hats = np.abs(pulse.fourier(sigma.centers)) ** 2
    return 2.0 * np.pi * float(sigma.atom_at_zero * hat0 + (sigma.bin_mass * hats).sum())
