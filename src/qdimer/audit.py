"""Side-by-side comparison of the two equation-of-motion variants.

The derived variant is the commutator plus dephasing, assembled
mechanically.  The published variant transcribes a set of component
equations whose row for the second single-excitation population carries
the opposite sign in every term; its trace row is then forced by
closure.  This module quantifies what that discrepancy does to
populations, coherences and entanglement for a given initial state, and
also runs the published rows *without* the closure row to expose the
trace growth the closure is hiding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .concurrence import concurrence_stack
from .integrate import UniformGrid, integrate_blocks
from .liouville import SystemParams

__all__ = ["ConsistencyReport", "consistency_report"]


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Deviations between the two variants over one run.

    max_population_deviation / max_rho_deviation / max_concurrence_deviation
    compare the closed published variant against the derived one, sample by
    sample.  concurrence_skipped counts samples where the published state was
    too unphysical to score; if any was skipped, max_concurrence_deviation is
    NaN, since the largest deviation is then unknown.
    published_trace_drift_no_closure is the worst trace error of the raw
    published rows (closure row replaced by the transcribed population
    equation).  published_pop23_diff_drift tracks the difference of the two
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
    params: SystemParams,
    rho0: np.ndarray,
    horizon: float,
    *,
    samples: int = 501,
) -> ConsistencyReport:
    """Walk the derived, published and raw published runs side by side and
    reduce each block as it arrives, so no trajectory, and no grid of times,
    is held.

    The runs leave omega0 out, as no field depends on it: its part of L is a
    diagonal phase that commutes with both variants and leaves the
    populations, rho23 and C alone.
    """
    times = UniformGrid(horizon, samples)  # refuses a bad sample count or horizon
    params = replace(params, omega0=0.0)
    # in this order, so that within a block the derived walk's error comes first
    walks = zip(
        integrate_blocks("derived", rho0, params, times),
        integrate_blocks("published", rho0, params, times),
        # raw published rows: trace is no longer conserved, so the walk is unguarded
        integrate_blocks("published", rho0, params, times, closure=False),
    )

    # np.maximum and np.minimum keep a NaN (the raw run can overflow), as the
    # maximum over the whole run would
    max_pop = max_rho = max_conc = trace_drift = pop23_drift = 0.0
    pop23_start = None
    low, high = math.inf, -math.inf
    skipped = 0
    # an unscorable published state is skipped; a derived one is an error
    for (_, derived), (_, published), (_, raw) in walks:
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

        traces = np.trace(raw, axis1=1, axis2=2).real
        trace_drift = np.maximum(trace_drift, np.max(np.abs(traces - 1.0)))

        diff_p = pops_p[:, 2] - pops_p[:, 1]
        diff_d = pops_d[:, 2] - pops_d[:, 1]
        if pop23_start is None:
            pop23_start = diff_p[0]
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
