"""Adaptive propagation of the master equation and its analytic free limit.

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant, FSAL, and a plain proportional step
controller.  Time is rescaled internally by the fastest rate in the
parameter set so step sizes stay near unity regardless of whether the
problem lives on picoseconds or microseconds.  No trace renormalization is
ever applied: trace drift is an error signal, not something to hide.

Everything here is deterministic -- identical inputs give bit-identical
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liouville import RhsVariant, SystemParams, superoperator

__all__ = [
    "IntegrationConfig",
    "IntegrationError",
    "StepStats",
    "Trajectory",
    "integrate",
    "closed_form_free",
]


class IntegrationError(RuntimeError):
    """Raised when the stepper cannot reach the requested horizon."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(message)
        self.t_reached = t_reached


@dataclass(frozen=True)
class IntegrationConfig:
    """Sampling grid and error control for one integration.

    sample_times  strictly increasing, first entry >= 0 (seconds)
    rel_tol       relative local error target, in (0, 1e-2]
    abs_tol       absolute local error floor, in (0, 1e-2]
    max_step      optional step cap in seconds; when None it is set to
                  0.1 / (fastest rate in the parameter set)
    """

    sample_times: np.ndarray
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.sample_times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("sample_times must be a non-empty 1-d array")
        if times[0] < 0.0:
            raise ValueError("sample_times must start at >= 0")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample_times must be strictly increasing")
        object.__setattr__(self, "sample_times", times)
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (0.0 < value <= 1e-2):
                raise ValueError(f"{name} must be in (0, 1e-2], got {value}")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ValueError(f"max_step must be > 0, got {self.max_step}")


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    min_step: float = field(default=float("inf"))
    max_step: float = 0.0


@dataclass
class Trajectory:
    """Sampled solution: states[k] is rho at times[k]."""

    times: np.ndarray
    states: np.ndarray
    params: SystemParams
    variant: str
    stats: StepStats


# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# error estimate = h * sum(_E[i] * k[i]); difference of 5th- and 4th-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# dense output: y(t0 + u*h) = y0 + h * K^T (P @ [u, u^2, u^3, u^4])
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


def _error_norm(err: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _initial_step(lv: np.ndarray, y0: np.ndarray, f0: np.ndarray, rel: float, abs_: float, h_max: float) -> float:
    # Hairer-Norsett-Wanner starting-step heuristic, order 5.
    scale = abs_ + rel * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = lv @ y1
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, h_max)


def integrate(
    variant: RhsVariant,
    rho0: np.ndarray,
    params: SystemParams,
    config: IntegrationConfig,
    *,
    closure: bool = True,
    trace_guard: bool = True,
) -> Trajectory:
    """Propagate rho0 under the chosen generator, sampling at config times.

    Returns a Trajectory whose states are the dense-output interpolants at the
    requested sample times.  Raises IntegrationError (with the time reached)
    on step-size underflow, and ValueError if the sampled trace drifts from 1
    by more than 1e-6 -- that much drift means the run cannot be trusted.

    closure=False selects the audit form of the published generator whose
    last diagonal row is not tied to the others; such runs are expected to
    drift, so they are normally paired with trace_guard=False.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"expected rho0 shape (4, 4), got {rho0.shape}")

    times = config.sample_times
    t_end = float(times[-1])
    if t_end == 0.0:
        states = rho0[np.newaxis].copy()
        return Trajectory(times.copy(), states, params, variant, StepStats())

    # Dimensionless internal time: s = t * rate ("fastest rate" rescaling).
    rate = params.fastest_rate()
    if rate <= 0.0:
        rate = 1.0 / t_end
    lv = superoperator(variant, params, closure=closure) / rate
    s_samples = times * rate
    s_end = t_end * rate
    if config.max_step is not None:
        h_max = config.max_step * rate
    else:
        h_max = min(0.1 * params.fastest_rate() / rate, s_end) if params.fastest_rate() > 0 else s_end
    h_max = min(h_max, s_end)

    rel, abs_ = config.rel_tol, config.abs_tol
    y = rho0.reshape(16).copy()
    stats = StepStats()

    f0 = lv @ y
    stats.rhs_evals += 2
    h = _initial_step(lv, y, f0, rel, abs_, h_max)

    out = np.empty((times.size, 16), dtype=complex)
    next_sample = 0
    if s_samples[0] == 0.0:
        out[0] = y
        next_sample = 1

    k = np.empty((7, 16), dtype=complex)
    k[0] = f0
    s = 0.0
    tiny = 1e-13  # step underflow threshold in rescaled units

    grow_allowed = True
    while s < s_end:
        remaining = s_end - s
        if remaining <= 1e-12 * s_end:
            break
        h = min(h, h_max, remaining)
        if h < tiny * max(1.0, abs(s)):
            raise IntegrationError(
                f"step size underflow at t = {s / rate:.6e} s", t_reached=s / rate
            )
        # stages
        for i in range(1, 7):
            y_stage = y + h * (k[:i].T @ _A[i])
            k[i] = lv @ y_stage
        stats.rhs_evals += 6
        y_new = y_stage  # stage 7 uses the 5th-order weights: y_new = y + h*(b.k)
        err = h * (k.T @ _E)
        scale = abs_ + rel * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _error_norm(err, scale)

        if err_norm <= 1.0:
            s_new = s + h
            # dense output for samples inside (s, s_new]
            while next_sample < s_samples.size and s_samples[next_sample] <= s_new + 1e-12 * s_end:
                u = (s_samples[next_sample] - s) / h
                u = min(max(u, 0.0), 1.0)
                pu = _P @ np.array([u, u * u, u**3, u**4])
                out[next_sample] = y + h * (k.T @ pu)
                next_sample += 1
            stats.accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            y = y_new
            k[0] = k[6]  # FSAL
            s = s_new
            factor = _MAX_FACTOR if err_norm == 0.0 else min(_MAX_FACTOR, _SAFETY * err_norm**-0.2)
            if not grow_allowed:
                factor = min(factor, 1.0)
            h *= max(_MIN_FACTOR, factor)
            grow_allowed = True
        else:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
            grow_allowed = False

    if next_sample < s_samples.size:  # horizon reached within roundoff of last sample
        out[next_sample:] = y
        next_sample = s_samples.size

    states = out.reshape(times.size, 4, 4)
    if trace_guard:
        drift = np.max(np.abs(np.einsum("kii->k", states).real - 1.0))
        if drift > 1e-6:
            raise ValueError(f"trace drifted by {drift:.3e} during integration")
    return Trajectory(times.copy(), states, params, variant, stats)


def _block23_propagator(j: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """exp(t*A) for A = [[-2g, 2J], [-2J, 0]], shape (len(t), 2, 2).

    A = -g*I + B with B*B = (g^2 - 4J^2)*I, so the exponential reduces to
    cosh/sinh of mu = sqrt(g^2 - 4J^2) (complex-safe for the oscillatory
    regime g < 2J).
    """
    t = np.asarray(t, dtype=float)
    mu = np.sqrt(complex(gamma * gamma - 4.0 * j * j))
    b = np.array([[-gamma, 2.0 * j], [-2.0 * j, gamma]], dtype=complex)
    if abs(mu) < 1e-300:
        sinc = t.astype(complex)  # sinh(mu t)/mu -> t
        cosh = np.ones_like(t, dtype=complex)
    else:
        cosh = np.cosh(mu * t)
        sinc = np.sinh(mu * t) / mu
    eye = np.eye(2, dtype=complex)
    mats = cosh[:, None, None] * eye + sinc[:, None, None] * b
    return np.exp(-gamma * t)[:, None, None] * mats


def closed_form_free(rho0: np.ndarray, params: SystemParams, t: np.ndarray | float) -> np.ndarray:
    """Exact solution of the undriven (Omega = 0) master equation.

    The generator block-diagonalizes:

    * rho11, rho44 are constants;
    * the (rho22, rho33, rho23) block is a damped rotation at 2J -- the real
      part of rho23 decays at 2*gamma on its own, while the imaginary part
      and the population difference rho22 - rho33 share a damped oscillation;
    * rho14 rotates at twice the splitting and decays at 2*gamma;
    * (rho12, rho13) and (rho24, rho34) rotate at splitting +- J, decay at gamma.

    Returns shape (4, 4) for scalar t, else (len(t), 4, 4).
    """
    if params.Omega != 0.0:
        raise ValueError("closed-form propagator requires Omega = 0")
    rho0 = np.asarray(rho0, dtype=complex)
    scalar = np.isscalar(t)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tt < 0.0):
        raise ValueError("times must be >= 0")

    d = params.splitting()
    j, g = params.J, params.gamma
    n = tt.size
    rho = np.zeros((n, 4, 4), dtype=complex)

    rho[:, 0, 0] = rho0[0, 0]
    rho[:, 3, 3] = rho0[3, 3]

    # (2,3) block
    pop = rho0[1, 1] + rho0[2, 2]
    x0 = 2.0 * rho0[1, 2].real
    yz0 = np.array([2.0 * rho0[1, 2].imag, (rho0[1, 1] - rho0[2, 2]).real], dtype=complex)
    yz = _block23_propagator(j, g, tt) @ yz0
    x = x0 * np.exp(-2.0 * g * tt)
    rho[:, 1, 1] = 0.5 * (pop + yz[:, 1])
    rho[:, 2, 2] = 0.5 * (pop - yz[:, 1])
    rho[:, 1, 2] = 0.5 * (x + 1j * yz[:, 0])
    rho[:, 2, 1] = np.conj(rho[:, 1, 2])

    # double-flip coherence
    rho[:, 0, 3] = rho0[0, 3] * np.exp((2j * d - 2.0 * g) * tt)
    rho[:, 3, 0] = np.conj(rho[:, 0, 3])

    # ground <-> single-excitation coherences
    ep = np.exp((1j * (d + j) - g) * tt)
    em = np.exp((1j * (d - j) - g) * tt)
    mp = (rho0[0, 1] + rho0[0, 2]) * ep
    mm = (rho0[0, 1] - rho0[0, 2]) * em
    rho[:, 0, 1] = 0.5 * (mp + mm)
    rho[:, 0, 2] = 0.5 * (mp - mm)
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    rho[:, 2, 0] = np.conj(rho[:, 0, 2])

    # single-excitation <-> doubly-excited coherences (J enters with the
    # opposite sign relative to the block above)
    np_ = (rho0[1, 3] + rho0[2, 3]) * em
    nm = (rho0[1, 3] - rho0[2, 3]) * ep
    rho[:, 1, 3] = 0.5 * (np_ + nm)
    rho[:, 2, 3] = 0.5 * (np_ - nm)
    rho[:, 3, 1] = np.conj(rho[:, 1, 3])
    rho[:, 3, 2] = np.conj(rho[:, 2, 3])

    return rho[0] if scalar else rho
