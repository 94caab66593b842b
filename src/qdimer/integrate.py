"""Exact propagation of the master equation and its analytic free limit.

For fixed parameters the generator L is a constant 16x16 matrix, so
rho(t + dt) = exp(L dt) rho(t) holds exactly.  `integrate` walks the
samples applying exp(L dt) for each spacing dt of the grid, to double
precision: short steps as Taylor series in matrix-vector products with L
(Al-Mohy & Higham 2011, SIAM J. Sci. Comput. 33:488), long ones through the
dense exponential by degree-13 Pade with scaling and squaring (Higham 2005,
SIAM J. Matrix Anal. Appl. 26:1179), computed once per distinct dt.
Neither needs an eigendecomposition, so the non-diagonalizable generators at
the exceptional point gamma = 2J and the raw published rows are handled
like any other.  No trace renormalization is ever applied: trace drift is
an error signal, not something to hide.

Everything here is deterministic -- identical inputs give bit-identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liouville import RhsVariant, SystemParams, superoperator

__all__ = [
    "IntegrationConfig",
    "StepCounts",
    "Trajectory",
    "integrate",
    "closed_form_free",
]


@dataclass(frozen=True)
class IntegrationConfig:
    """Sampling grid for one integration.

    sample_times  finite, strictly increasing, first entry >= 0 (seconds)
    """

    sample_times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.sample_times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("sample_times must be a non-empty 1-d array")
        if not np.all(np.isfinite(times)):
            raise ValueError("sample_times must be finite")
        if times[0] < 0.0:
            raise ValueError("sample_times must start at >= 0")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample_times must be strictly increasing")
        object.__setattr__(self, "sample_times", times)


@dataclass(frozen=True)
class StepCounts:
    """Steps exp(L dt) that one `integrate` call applied.

    accepted  all of them, one per sample after t = 0 (an exact step is
              never rejected; the name is the one the benchmark's trace reads)
    dense     those applied through the dense exponential rather than the
              Taylor series in matrix-vector products
    """

    accepted: int
    dense: int


@dataclass
class Trajectory:
    """Sampled solution: states[k] is rho at times[k]."""

    times: np.ndarray
    states: np.ndarray
    params: SystemParams
    variant: str
    stats: StepCounts


# Steps are applied as Taylor series summed by products with L, in substeps
# of 1-norm at most 2 (the largest term is 2**2/2! = 2, so cancellation costs
# at most a bit).  Every operation on rho is then a product with L or a
# linear combination, so two generators that act alike on rho give
# bit-identical trajectories (the two variants do from symmetric starts,
# where concurrence is too ill-conditioned to tolerate any other rounding).
# The cap is not a speed crossover: a dense step is always cheaper per
# sample.  Measured on a 2-vCPU x86-64 host, a Taylor step costs about
# 90-120 us at |L dt|_1 <= 2 (18-23 products) and 370-450 us at 8 (92
# products), growing linearly beyond; a dense step costs 1-2.5 us per sample
# plus about 140 us once per distinct dt.  Four substeps (|L dt|_1 <= 8)
# keep the free presets' grids, and their 201-sample test grids (|L dt|_1 =
# 7.5), on the Taylor path while bounding its cost; longer steps go dense.
_SUBSTEP_NORM = 2.0
_MAX_SUBSTEPS = 4
_UNIT_ROUNDOFF = 2.0**-53

# Degree-13 Pade coefficients and the 1-norm up to which that approximant
# reaches double precision without scaling (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray, norm: float) -> np.ndarray:
    """exp(a) by scaling and squaring degree-13 Pade; norm is |a|_1."""
    squarings = max(0, math.ceil(math.log2(norm / _THETA13)))
    a = a / 2.0**squarings
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(a.shape[0], dtype=a.dtype)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def _propagator(a: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
    """Function mapping a vector y to exp(a) y, and whether it is dense."""
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise ValueError("generator times time step is not finite")
    substeps = math.ceil(norm / _SUBSTEP_NORM)
    if substeps > _MAX_SUBSTEPS:
        dense = _expm(a, norm)
        return (lambda y: dense @ y), True
    if substeps:
        a = a / substeps
    # Taylor degree: the first omitted term x**(m+1)/(m+1)! is below roundoff
    x = norm / max(substeps, 1)
    degree, term = 0, x
    while term > _UNIT_ROUNDOFF:
        degree += 1
        term *= x / (degree + 1)

    def apply(y: np.ndarray) -> np.ndarray:
        for _ in range(substeps):
            acc = y
            for j in range(degree, 0, -1):
                acc = y + (a @ acc) / j
            y = acc
        return y

    return apply, False


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

    Each sample is exp(L dt) applied to the previous one (to rho0 for the
    first, with dt = times[0]); a sample at t = 0 is rho0 itself.  Steps
    with |L dt|_1 <= 8 touch rho only through products with L, so two
    generators that agree on rho's span give bit-identical trajectories;
    longer steps use the dense exponential of L dt, which keeps that only
    to rounding.  `stats` counts the steps of each kind.  Raises
    ValueError for a non-finite rho0, and if the sampled trace drifts from 1
    by more than 1e-6 -- that much drift means the run cannot be trusted.

    closure=False selects the audit form of the published generator whose
    last diagonal row is not tied to the others; such runs are expected to
    drift, so they are normally paired with trace_guard=False.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"expected rho0 shape (4, 4), got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("rho0 must be finite")

    times = config.sample_times
    lv = superoperator(variant, params, closure=closure)
    # exact float keys: a uniform grid has only a handful of distinct spacings
    steps: dict[float, tuple[Callable[[np.ndarray], np.ndarray], bool]] = {}
    out = np.empty((times.size, 16), dtype=complex)
    y = rho0.reshape(16)
    accepted = dense = 0
    for k, dt in enumerate(np.diff(times, prepend=0.0).tolist()):
        if dt != 0.0:  # only the first sample can sit at dt = 0, i.e. t = 0
            if dt not in steps:
                steps[dt] = _propagator(lv * dt)
            apply, is_dense = steps[dt]
            y = apply(y)
            accepted += 1
            dense += is_dense
        out[k] = y

    states = out.reshape(times.size, 4, 4)
    if trace_guard:
        drift = np.max(np.abs(np.einsum("kii->k", states).real - 1.0))
        if not drift <= 1e-6:  # NaN drift fails too
            raise ValueError(f"trace drifted by {drift:.3e} during integration")
    return Trajectory(times.copy(), states, params, variant, StepCounts(accepted, dense))


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
