"""The Dormand-Prince reference stepper checked on its own terms: error
control, step statistics and determinism."""

import numpy as np

from oracles import dopri5
from qdimer.integrate import closed_form_free
from qdimer.liouville import SystemParams
from qdimer.states import named_state, pure_density

FREE = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)


def test_tolerance_controls_error_at_high_order():
    # uncapped steps so the error controller, not max_step, limits accuracy
    rho0 = pure_density(named_state("L1R2"))
    times = np.linspace(0.0, 2e-9, 41)

    def worst_error(rel_tol):
        states, _ = dopri5(
            "derived", rho0, FREE, times, rel_tol=rel_tol, abs_tol=1e-14, max_step=1.0
        )
        return np.max(np.abs(states - closed_form_free(rho0, FREE, times)))

    coarse = worst_error(1e-4)
    fine = worst_error(1e-8)
    assert fine < coarse / 1e3, (coarse, fine)


def test_stats_are_populated():
    times = np.linspace(0.0, 1e-9, 5)
    _, stats = dopri5("derived", pure_density(named_state("e1g2")), FREE, times)
    assert stats.accepted > 0
    assert stats.rhs_evals > stats.accepted
    assert 0.0 < stats.min_step <= stats.max_step


def test_determinism_bitwise():
    times = np.linspace(0.0, 2e-9, 17)
    rho0 = pure_density(named_state("L1L2"))
    one, one_stats = dopri5("derived", rho0, FREE, times, rel_tol=1e-9)
    two, two_stats = dopri5("derived", rho0, FREE, times, rel_tol=1e-9)
    assert np.array_equal(one, two)
    assert one_stats.accepted == two_stats.accepted
    assert one_stats.rejected == two_stats.rejected
