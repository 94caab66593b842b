"""Repeated projective measurement of an entangled target state.

Prepare the target, let the pair evolve freely for an interval tau, project
back onto the target, and repeat.  The reported survival probability is the
selective one: the probability that every one of the N measurements found
the target.  For a coherence-free run this is [cos^2(J tau)]^N when the
target is one of the circular superpositions of the single-excitation
states, and it approaches exp(-J^2 T^2 / N) at fixed T = N tau as the
measurements become frequent.

Propagation between measurements uses the exact free propagator, so the
protocol itself introduces no integration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import closed_form_free
from .liouville import SystemParams, _is_finite_number, _is_integer
from .states import named_state, population, pure_density

__all__ = ["MAX_MEASUREMENTS", "ZenoProtocol", "ZenoResult", "run_zeno", "analytic_survival"]

# run_zeno holds the whole survival curve and its times, 16 bytes per
# measurement (traced peak at 10**6), so ZenoProtocol refuses more than this
# many before anything is allocated: at most 160 MB
MAX_MEASUREMENTS = 10**7


@dataclass(frozen=True, eq=False)
class ZenoProtocol:
    """One measurement schedule: N projections onto `target`, spaced tau.

    The protocol only makes sense inside the Zeno window tau < 1/J, where a
    single interval rotates the state by much less than a full swap; outside
    it the "measurement" is just sampling an arbitrary phase of the swap
    oscillation.
    """

    tau: float
    n_measurements: int
    params: SystemParams
    target: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (_is_finite_number(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be > 0, got {self.tau!r}")
        if not _is_integer(self.n_measurements):
            raise ValueError(f"n_measurements must be an integer, got {self.n_measurements!r}")
        if self.n_measurements < 1:
            raise ValueError(f"need at least one measurement, got {self.n_measurements}")
        if self.n_measurements > MAX_MEASUREMENTS:
            count = str(self.n_measurements)
            if len(count) > 15:  # the int may be too large for a float
                count = f"{count[0]}.{count[1:4]}e+{len(count) - 1}"
            raise ValueError(
                f"tau = {self.tau:.3e} s asks for {count} measurements, above the cap "
                f"of {MAX_MEASUREMENTS}"
            )
        if self.params.Omega != 0.0:
            raise ValueError("zeno protocol requires free evolution (Omega = 0)")
        if self.params.J > 0.0 and self.tau >= 1.0 / self.params.J:
            raise ValueError(
                f"tau = {self.tau:.3e} s is outside the Zeno window (need tau < 1/J = "
                f"{1.0 / self.params.J:.3e} s)"
            )
        target = self.target if self.target is not None else named_state("f")
        target = np.asarray(target, dtype=complex)
        norm = np.linalg.norm(target)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"target state norm is {norm}, expected 1")
        object.__setattr__(self, "target", target)

    @property
    def total_time(self) -> float:
        return self.n_measurements * self.tau


@dataclass(frozen=True, eq=False)
class ZenoResult:
    """Survival curve: survival[k] is the probability that measurements
    1..k all found the target (survival[0] = 1 at t = 0)."""

    protocol: ZenoProtocol
    times: np.ndarray
    survival: np.ndarray
    step_probability: float


def run_zeno(protocol: ZenoProtocol) -> ZenoResult:
    """Run the selective measurement chain starting from the target state.

    Each cycle propagates the conditional state for tau with the exact free
    propagator, reads p = <target|rho|target>, and projects back onto the
    target.  The projector has rank 1, so every cycle restarts from the pure
    target state and has the same p: survival[k] = p**k.  Raises if the
    chain is extinguished (p <= 1e-15).
    """
    target = protocol.target
    rho = closed_form_free(pure_density(target), protocol.params, protocol.tau)
    p = population(rho, target)
    if p <= 1e-15:
        raise ValueError(f"measurement chain extinguished at step 1 (p = {p:.3e})")
    n = protocol.n_measurements
    survival = p ** np.arange(n + 1)
    times = np.arange(n + 1, dtype=float)
    times *= protocol.tau  # in place, so the curve and its times are all it holds
    return ZenoResult(protocol=protocol, times=times, survival=survival, step_probability=float(p))


def analytic_survival(j: float, tau: float, n: int) -> tuple[float, float]:
    """Closed forms for the N-measurement survival of a coherence-free run.

    Returns (exact, gaussian) = ([cos^2(J tau)]^N, exp(-J^2 T^2 / N)) with
    T = N tau.  The gaussian form is the frequent-measurement limit; at
    J tau ~ 0.4 it overshoots the exact product noticeably, which is part of
    what a sweep report is expected to show.
    """
    if j < 0.0 or tau < 0.0:
        raise ValueError("J and tau must be >= 0")
    if n < 0:
        raise ValueError(f"measurement count must be >= 0, got {n}")
    if n == 0:
        return 1.0, 1.0
    c = math.cos(j * tau)
    exact = (c * c) ** n
    total = n * tau
    gaussian = math.exp(-(j * total) ** 2 / n)
    return exact, gaussian
