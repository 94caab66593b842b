"""Repeated projective measurement of the entangled state |f>.

Prepare |f>, let the pair evolve freely for an interval tau, project back
onto |f>, and repeat.  The reported survival probability is the selective
one: the probability that every one of the N measurements found |f>.  For a
coherence-free run this is [cos^2(J tau)]^N, and it approaches
exp(-J^2 T^2 / N) at fixed T = N tau as the measurements become frequent.

The interval between measurements is one exact step exp(L tau) of the same
block walk that every other command runs, so the protocol itself introduces
no integration error.
"""

from __future__ import annotations

import math

import numpy as np

from .integrate import integrate_blocks
from .liouville import (
    MAX_SAMPLES, SystemParams, _check_nonnegative, _check_positive, _is_integer, _shown
)
from .states import named_state, population, pure_density

__all__ = ["run_zeno", "analytic_survival"]


def _intervals(total: float, tau: float) -> int | None:
    """The whole number of tau intervals in total, to 1e-9 relative, or None."""
    ratio = total / tau
    if not math.isfinite(ratio):
        raise ValueError(f"tau = {tau:.3e} s asks for more than 1e308 measurements, "
                         f"above the cap of {MAX_SAMPLES}")
    n = round(ratio)
    return n if n >= 1 and abs(ratio - n) <= 1e-9 * ratio else None


def _check_chain(tau: float, n_measurements: int, J: float, gamma: float) -> None:
    """Refuse a chain run_zeno cannot run, before anything is allocated.

    The chain only makes sense inside the Zeno window tau < 1/J, where a single
    interval rotates the state by much less than a full swap; outside it the
    "measurement" is just sampling an arbitrary phase of the swap oscillation.
    """
    _check_nonnegative(J=J, gamma=gamma)
    _check_positive("tau", tau)
    if not _is_integer(n_measurements):
        raise ValueError(f"n_measurements must be an integer, got {_shown(n_measurements)}")
    if n_measurements < 1:
        raise ValueError(f"need at least one measurement, got {_shown(n_measurements)}")
    if n_measurements > MAX_SAMPLES:
        raise ValueError(f"tau = {tau:.3e} s asks for {_shown(n_measurements)} "
                         f"measurements, above the cap of {MAX_SAMPLES}")
    if J > 0.0 and tau >= 1.0 / J:
        raise ValueError(
            f"tau = {tau:.3e} s is outside the Zeno window (need tau < 1/J = {1.0 / J:.3e} s)"
        )


def run_zeno(tau: float, n_measurements: int, J: float, gamma: float) -> np.ndarray:
    """Survival curve of the selective chain of n_measurements projections onto
    |f>, spaced tau, of a free pair with exchange rate J and dephasing rate
    gamma: survival[k] is the probability that measurements 1..k all found |f>
    (survival[0] = 1 at t = 0), measurement k taken at k * tau.  omega0 drops
    out, as |f> spans two equal-energy levels.

    Each cycle propagates the conditional state for tau, reads
    p = <f|rho|f>, and projects back onto |f>.  The projector has rank 1, so
    every cycle restarts from the pure state |f> and has the same p:
    survival[k] = p**k.  Inside the Zeno window p > 0.2915 (it is
    cos^2(J tau) at gamma = 0, and (1 + exp(-2 gamma tau)) / 2 at J = 0), so
    the chain is never extinguished.
    """
    _check_chain(tau, n_measurements, J, gamma)
    f = named_state("f")
    params = SystemParams(omega0=0.0, J=J, gamma=gamma)
    [(_, states)] = integrate_blocks("derived", pure_density(f), params, [tau])
    p = population(states[0], f)
    return p ** np.arange(n_measurements + 1)


def analytic_survival(j: float, tau: float, n: int) -> tuple[float, float]:
    """Closed forms for the N-measurement survival of a coherence-free run.

    Returns (exact, gaussian) = ([cos^2(J tau)]^N, exp(-J^2 T^2 / N)) with
    T = N tau.  The gaussian form is the frequent-measurement limit; at
    J tau ~ 0.4 it overshoots the exact product noticeably, which is part of
    what a sweep report is expected to show.
    """
    _check_nonnegative(J=j, tau=tau)
    if not _is_integer(n):
        raise ValueError(f"measurement count must be an integer, got {_shown(n)}")
    _check_nonnegative(n=n)
    if n == 0:
        return 1.0, 1.0
    c = math.cos(j * tau)
    exact = (c * c) ** n
    total = n * tau
    gaussian = math.exp(-(j * total) ** 2 / n)
    return exact, gaussian
