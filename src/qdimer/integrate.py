"""Exact propagation of the master equation and its analytic free limit.

For fixed parameters the generator L is a constant 16x16 matrix, so
rho(t + dt) = exp(L dt) rho(t) holds exactly.  `integrate_blocks` takes L
as its callers build it with `liouville.superoperator`, builds
S = exp(L dt) as a 16x16 matrix once per distinct spacing dt of the grid --
the Taylor series of L dt / 2**s by matrix Horner, then s squarings
(Al-Mohy & Higham 2011, SIAM J. Sci. Comput. 33:488) -- and walks the
samples with one product S @ rho each.  Neither step needs an
eigendecomposition, so the non-diagonalizable generators at the exceptional
point gamma = 2J and the published rows are handled like any other.
No trace renormalization is ever applied: trace drift is an error signal,
not something to hide.

Everything here is deterministic -- identical inputs give bit-identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .liouville import SystemParams, _check_positive, _check_samples
from .states import blocks

__all__ = ["UniformGrid", "integrate_blocks", "closed_form_free"]


@dataclass(frozen=True)
class UniformGrid:
    """The times np.linspace(0.0, horizon, size), computed a block at a time.

    A walk over it touches only the times of the blocks it reaches, so a run
    that fails in its first block never builds the rest of its grid.
    """

    horizon: float
    size: int

    def __post_init__(self) -> None:
        _check_samples(self.size)
        _check_positive("horizon", self.horizon)

    def __getitem__(self, rows: slice) -> np.ndarray:
        """The times at `rows`, bit for bit those of the np.linspace grid:
        index times horizon / (size - 1), with the last one the horizon."""
        index = range(*rows.indices(self.size))
        # scaled in place, as linspace does it, so the times are the one array made
        times = np.arange(index.start, index.stop, index.step, dtype=float)
        times *= self.horizon / (self.size - 1)
        if index and index[-1] == self.size - 1:
            times[-1] = self.horizon
        return times


# exp(L dt) is the Taylor series of L dt / 2**s, summed as a matrix by
# Horner's rule and squared s times (Al-Mohy & Higham 2011).  The scaled
# norm is at most 2, so the largest term is 2**2/2! = 2 and cancellation
# costs at most a bit; the degree is the first at which the omitted term
# falls below the unit roundoff.
_SCALED_NORM = 2.0
_UNIT_ROUNDOFF = 2.0**-53


def _exponential(lv: np.ndarray, dt: float) -> np.ndarray:
    """exp(lv * dt) of a square matrix lv; ValueError if lv * dt is not finite."""
    a = lv * dt
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise ValueError(f"generator times time step is not finite (1-norm of the generator "
                         f"{float(np.linalg.norm(lv, 1)):g} s^-1, step {dt:g} s)")
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
    lv: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray | UniformGrid,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Propagate rho0 under the generator lv, one block of samples at a time.

    lv is the 16x16 matrix L of d vec(rho)/dt = L vec(rho) (row-major vec), as
    `liouville.superoperator` builds it.  Yields (rows, states) for
    consecutive blocks of at most `states.BLOCK` samples, where states[k] is
    rho at times[rows][k].  times must be finite, strictly increasing and
    start at >= 0 (seconds); a UniformGrid gives each block's times as the
    walk reaches it.  Each sample is exp(L dt) applied to the previous one (to
    rho0 for the first, with dt = times[0]); a sample at t = 0 is rho0
    itself.  Raises ValueError for an lv that is not a finite (16, 16) matrix
    or a non-finite rho0 at once, and for a bad grid or a sampled trace that
    drifted from 1 by more than 1e-6 or overflowed (either means the run
    cannot be trusted) at the first block that holds one; that block is not
    yielded and nothing past it is stepped.

    From symmetric starts such as L1L2 the derived and published generators
    act alike on every state the run reaches, but exp(L dt) is built from all
    of L, so their trajectories agree to rounding, not bit for bit; the
    published generator's growing mode amplifies that rounding over the run.
    """
    lv = np.asarray(lv, dtype=complex)
    if lv.shape != (16, 16):
        raise ValueError(f"expected lv shape (16, 16), got {lv.shape}")
    if not np.all(np.isfinite(lv)):
        raise ValueError("lv must be finite")
    if not isinstance(times, UniformGrid):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("sample_times must be a non-empty 1-d array")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"expected rho0 shape (4, 4), got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("rho0 must be finite")

    # exact float keys: a uniform grid has only a handful of distinct spacings
    steps: dict[float, np.ndarray] = {}
    y = rho0.reshape(16)
    last = 0.0  # the time of the state y; rho0 sits at t = 0
    for rows in blocks(times.size):
        block = times[rows]
        if not np.all(np.isfinite(block)):
            raise ValueError("sample_times must be finite")
        dts = np.diff(block, prepend=last)
        if rows.start == 0 and dts[0] < 0.0:
            raise ValueError("sample_times must start at >= 0")
        # only times[0] may sit at dt = 0, i.e. t = 0
        if not np.all(dts[1 if rows.start == 0 else 0:] > 0.0):
            raise ValueError("sample_times must be strictly increasing")
        last = block[-1]
        out = np.empty((rows.stop - rows.start, 16), dtype=complex)
        # a growing mode (the published generator has one) can overflow the
        # state; the trace guard reports that, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            for k, dt in enumerate(dts.tolist()):
                if dt != 0.0:
                    if dt not in steps:
                        steps[dt] = _exponential(lv, dt)
                    y = steps[dt] @ y
                out[k] = y
            states = out.reshape(-1, 4, 4)
            drift = float(np.max(np.abs(np.einsum("kii->k", states).real - 1.0)))
        if not math.isfinite(drift):
            raise ValueError(f"the state overflowed during integration (trace drift {drift})")
        if drift > 1e-6:
            raise ValueError(f"trace drifted by {drift:.3e} during integration")
        yield rows, states


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

    No command calls this: every one propagates with `integrate_blocks`, and
    this is the walk's reference on free runs, in the tests and the benchmark.

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
