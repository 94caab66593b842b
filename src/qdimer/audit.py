"""Side-by-side comparison of the two equation-of-motion variants.

The derived variant is the commutator plus dephasing, assembled
mechanically.  The published variant transcribes a set of component
equations whose row for the second single-excitation population carries
the opposite sign in every term; its trace row is then forced by
closure.  This module quantifies what that discrepancy does to
populations, coherences and entanglement for a given initial state, and
also reports the trace the published rows would leak *without* the closure
row.  The audit runs a free pair, given by its exchange and dephasing rates,
so that leak is read from rho33 alone: the derived population rows sum to
zero, so with the rho33 row negated d tr/dt = 2 drho33/dt, and rho44 feeds no
other entry, so the closed and the unclosed rows share rho33.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concurrence import concurrence_stack
from .integrate import UniformGrid, integrate_blocks
from .liouville import SystemParams, superoperator

__all__ = ["ConsistencyReport", "consistency_report"]


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Deviations between the two variants over one run.

    max_population_deviation / max_rho_deviation / max_concurrence_deviation
    compare the closed published variant against the derived one, sample by
    sample.  concurrence_skipped counts samples where the published state was
    too unphysical to score; if any was skipped, max_concurrence_deviation is
    NaN, since the largest deviation is then unknown.
    published_trace_drift_no_closure is the worst trace error of the
    published rows without the closure row (rho44 left to the derived
    equation): 2 |rho33(t) - rho33(0)| of the published run.
    published_pop23_diff_drift tracks the difference of the two
    single-excitation populations, which the published rows freeze at its
    initial value; derived_pop23_diff_range shows how much the same
    quantity actually moves.
    """

    max_population_deviation: float
    max_rho_deviation: float
    max_concurrence_deviation: float
    concurrence_skipped: int
    published_trace_drift_no_closure: float
    published_pop23_diff_drift: float
    derived_pop23_diff_range: float


def consistency_report(
    J: float,
    gamma: float,
    rho0: np.ndarray,
    horizon: float,
    *,
    samples: int = 501,
) -> ConsistencyReport:
    """Walk the derived and published runs of a free pair with exchange rate J
    and dephasing rate gamma side by side, and reduce each block as it
    arrives, so no trajectory, and no grid of times, is held.

    omega0 drops out: its part of L is a diagonal phase that commutes with
    both variants and leaves the populations, rho23 and C alone.
    """
    params = SystemParams(omega0=0.0, J=J, gamma=gamma)  # refuses a bad rate by name
    times = UniformGrid(horizon, samples)  # refuses a bad sample count or horizon
    # in this order, so that within a block the derived walk's error comes first
    walks = zip(
        integrate_blocks(superoperator("derived", params), rho0, times),
        integrate_blocks(superoperator("published", params), rho0, times),
    )

    # np.maximum and np.minimum keep a NaN, as the maximum over the whole run would
    max_pop = max_rho = max_conc = trace_drift = pop23_drift = 0.0
    rho33_start = pop23_start = None
    low, high = math.inf, -math.inf
    skipped = 0
    # an unscorable published state is skipped; a derived one is an error
    for (_, derived), (_, published) in walks:
        c_d = concurrence_stack(derived)
        c_d.check()
        c_p = concurrence_stack(published)
        skipped += int(np.count_nonzero(~c_p.valid))
        deviation = np.abs(c_d.values - c_p.values)[c_p.valid]
        max_conc = np.maximum(max_conc, np.max(deviation, initial=0.0))

        pops_d = np.diagonal(derived, axis1=1, axis2=2).real
        pops_p = np.diagonal(published, axis1=1, axis2=2).real
        max_pop = np.maximum(max_pop, np.max(np.abs(pops_d - pops_p)))
        max_rho = np.maximum(max_rho, np.max(np.abs(derived - published)))

        diff_p = pops_p[:, 2] - pops_p[:, 1]
        diff_d = pops_d[:, 2] - pops_d[:, 1]
        if pop23_start is None:
            rho33_start, pop23_start = pops_p[0, 2], diff_p[0]
        # the unclosed rows' trace error, tr - 1 = 2 (rho33 - rho33(0))
        trace_drift = np.maximum(trace_drift, np.max(2.0 * np.abs(pops_p[:, 2] - rho33_start)))
        pop23_drift = np.maximum(pop23_drift, np.max(np.abs(diff_p - pop23_start)))
        low = np.minimum(low, np.min(diff_d))
        high = np.maximum(high, np.max(diff_d))

    return ConsistencyReport(
        max_population_deviation=float(max_pop),
        max_rho_deviation=float(max_rho),
        max_concurrence_deviation=math.nan if skipped else float(max_conc),
        concurrence_skipped=skipped,
        published_trace_drift_no_closure=float(trace_drift),
        published_pop23_diff_drift=float(pop23_drift),
        derived_pop23_diff_range=float(high - low),
    )
