"""Exact propagation of the master equation and its analytic free limit.

For fixed parameters the generator L is a constant 16x16 matrix, so
rho(t + dt) = exp(L dt) rho(t) holds exactly.  `integrate_blocks` builds
S = exp(L dt) as a 16x16 matrix once per distinct spacing dt of the grid --
the Taylor series of L dt / 2**s by matrix Horner, then s squarings
(Al-Mohy & Higham 2011, SIAM J. Sci. Comput. 33:488) -- and walks the
samples with one product S @ rho each.  Neither step needs an
eigendecomposition, so the non-diagonalizable generators at the exceptional
point gamma = 2J and the raw published rows are handled like any other.
No trace renormalization is ever applied: trace drift is an error signal,
not something to hide.

Everything here is deterministic -- identical inputs give bit-identical
trajectories.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .liouville import RhsVariant, SystemParams, superoperator
from .states import blocks

__all__ = ["integrate_blocks", "closed_form_free"]


# exp(L dt) is the Taylor series of L dt / 2**s, summed as a matrix by
# Horner's rule and squared s times (Al-Mohy & Higham 2011).  The scaled
# norm is at most 2, so the largest term is 2**2/2! = 2 and cancellation
# costs at most a bit; the degree is the first at which the omitted term
# falls below the unit roundoff.
_SCALED_NORM = 2.0
_UNIT_ROUNDOFF = 2.0**-53


def _exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix; ValueError if its 1-norm is not finite."""
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise ValueError("generator times time step is not finite")
    squarings = 0 if norm <= _SCALED_NORM else math.ceil(math.log2(norm / _SCALED_NORM))
    a = a / 2.0**squarings
    x = norm / 2.0**squarings
    degree, term = 0, x
    while term > _UNIT_ROUNDOFF:
        degree += 1
        term *= x / (degree + 1)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    result = eye
    for j in range(degree, 0, -1):
        result = eye + (a @ result) / j
    for _ in range(squarings):
        result = result @ result
    return result


def integrate_blocks(
    variant: RhsVariant,
    rho0: np.ndarray,
    params: SystemParams,
    times: np.ndarray,
    *,
    closure: bool = True,
    trace_guard: bool = True,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Propagate rho0 under the chosen generator, one block of samples at a time.

    Yields (rows, states) for consecutive blocks of at most `states.BLOCK`
    samples, where states[k] is rho at times[rows][k].  times must be finite,
    strictly increasing and start at >= 0 (seconds).  Each sample is
    exp(L dt) applied to the previous one (to rho0 for the first, with
    dt = times[0]); a sample at t = 0 is rho0 itself.  Raises ValueError for
    a bad grid, a non-finite rho0, and, once the whole grid is walked, if the
    sampled trace drifted from 1 by more than 1e-6 or the state overflowed --
    either means the run cannot be trusted.  No block is yielded from the
    first one that fails the guard on, so the caller never sees such a state;
    the walk still steps to the end, so the error reports the worst drift
    over the whole grid.

    From symmetric starts such as L1L2 the two generator variants act alike
    on every state the run reaches, but exp(L dt) is built from all of L, so
    their trajectories agree to rounding, not bit for bit; the published
    generator's growing mode amplifies that rounding over the run.

    closure=False selects the audit form of the published generator whose
    last diagonal row is not tied to the others; such runs are expected to
    drift, so they are normally paired with trace_guard=False.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("sample_times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample_times must be finite")
    if times[0] < 0.0:
        raise ValueError("sample_times must start at >= 0")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise ValueError("sample_times must be strictly increasing")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"expected rho0 shape (4, 4), got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("rho0 must be finite")

    lv = superoperator(variant, params, closure=closure)
    # exact float keys: a uniform grid has only a handful of distinct spacings
    steps: dict[float, np.ndarray] = {}
    y = rho0.reshape(16)
    drift = 0.0
    last = 0.0  # the time of the state y; rho0 sits at t = 0
    for rows in blocks(times.size):
        dts = np.diff(times[rows], prepend=last)
        last = times[rows.stop - 1]
        out = np.empty((rows.stop - rows.start, 16), dtype=complex)
        # a growing mode (the published generator has one) can overflow the
        # state; the trace guard reports that, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            for k, dt in enumerate(dts.tolist()):
                if dt != 0.0:  # only the first sample can sit at dt = 0, i.e. t = 0
                    if dt not in steps:
                        steps[dt] = _exponential(lv * dt)
                    y = steps[dt] @ y
                out[k] = y
            states = out.reshape(-1, 4, 4)
            if trace_guard:
                # np.maximum keeps a NaN, as the maximum over the whole grid would
                drift = np.maximum(drift, np.max(np.abs(np.einsum("kii->k", states).real - 1.0)))
        if drift <= 1e-6:
            yield rows, states

    if trace_guard:
        if not math.isfinite(drift):
            raise ValueError(f"the state overflowed during integration (trace drift {drift})")
        if not drift <= 1e-6:
            raise ValueError(f"trace drifted by {drift:.3e} during integration")


def _block23_propagator(j: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """exp(t*A) for A = [[-2g, 2J], [-2J, 0]], shape (len(t), 2, 2).

    A = -g*I + B with B*B = (g^2 - 4J^2)*I, so the exponential reduces to
    cosh/sinh of mu = sqrt(g^2 - 4J^2) (complex-safe for the oscillatory
    regime g < 2J).  In the overdamped regime e^{mu t} is folded into the
    decay, so large gamma*t cannot overflow cosh and sinh.
    """
    t = np.asarray(t, dtype=float)
    mu = np.sqrt(complex(gamma * gamma - 4.0 * j * j))
    b = np.array([[-gamma, 2.0 * j], [-2.0 * j, gamma]], dtype=complex)
    decay = np.exp(-gamma * t)
    if abs(mu) < 1e-300:
        sinc = t.astype(complex)  # sinh(mu t)/mu -> t
        cosh = np.ones_like(t, dtype=complex)
    elif mu.imag == 0.0:
        m = mu.real
        cosh = (0.5 * (1.0 + np.exp(-2.0 * m * t))).astype(complex)
        sinc = (-np.expm1(-2.0 * m * t) / (2.0 * m)).astype(complex)
        decay = np.exp(-4.0 * j * j / (gamma + m) * t)  # e^{(mu - g) t}
    else:
        cosh = np.cosh(mu * t)
        sinc = np.sinh(mu * t) / mu
    eye = np.eye(2, dtype=complex)
    mats = cosh[:, None, None] * eye + sinc[:, None, None] * b
    return decay[:, None, None] * mats


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
