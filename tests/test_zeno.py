import numpy as np
import pytest

from qdimer.liouville import SystemParams
from qdimer.states import named_state
from qdimer.zeno import MAX_MEASUREMENTS, ZenoProtocol, analytic_survival, run_zeno

FREE = SystemParams(omega0=1.5e11, J=4.0e9, gamma=0.0)
FREE_DEPH = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)


# ---------------------------------------------------------------------------
# protocol validation

def test_protocol_validation():
    with pytest.raises(ValueError):
        ZenoProtocol(tau=0.0, n_measurements=5, params=FREE)
    with pytest.raises(ValueError):
        ZenoProtocol(tau=1e-11, n_measurements=0, params=FREE)
    driven = SystemParams(
        omega0=1.5e11, J=4e9, gamma=0.0, Omega=1e7, delta_l=0.0, driven=True
    )
    with pytest.raises(ValueError):
        ZenoProtocol(tau=1e-11, n_measurements=5, params=driven)
    with pytest.raises(ValueError):  # outside the Zeno window tau < 1/J
        ZenoProtocol(tau=3e-10, n_measurements=5, params=FREE)
    with pytest.raises(ValueError):  # unnormalized target
        ZenoProtocol(tau=1e-11, n_measurements=5, params=FREE,
                     target=np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_protocol_rejects_non_finite_target(value):
    # a NaN norm once passed, and run_zeno gave survival [1, nan, nan, ...]
    with pytest.raises(ValueError, match="target state norm"):
        ZenoProtocol(tau=1e-11, n_measurements=3, params=FREE,
                     target=np.array([value, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, True])
def test_protocol_rejects_non_finite_tau(bad):
    params = SystemParams(omega0=1.5e11, J=0.0, gamma=0.0)  # no Zeno window
    with pytest.raises(ValueError, match="tau"):
        ZenoProtocol(tau=bad, n_measurements=5, params=params)


@pytest.mark.parametrize("bad", [2.5, 5.0, np.nan, True])
def test_protocol_n_measurements_must_be_integer(bad):
    with pytest.raises(ValueError, match="n_measurements must be an integer"):
        ZenoProtocol(tau=1e-11, n_measurements=bad, params=FREE)


def test_protocol_caps_the_measurement_count():
    # run_zeno allocates the whole survival curve, so the count is refused
    # before anything is allocated; constructing the protocol allocates nothing
    assert ZenoProtocol(tau=1e-11, n_measurements=MAX_MEASUREMENTS, params=FREE)
    for n, count in [(MAX_MEASUREMENTS + 1, "10000001"), (10**291, "1.000e+291")]:
        with pytest.raises(ValueError) as err:
            ZenoProtocol(tau=1e-11, n_measurements=n, params=FREE)
        assert str(err.value) == (
            f"tau = 1.000e-11 s asks for {count} measurements, above the cap of 10000000"
        )


def test_protocol_records_total_time():
    proto = ZenoProtocol(tau=1e-11, n_measurements=100, params=FREE)
    assert proto.total_time == pytest.approx(1e-9)
    assert np.allclose(proto.target, named_state("f"))  # default target


# ---------------------------------------------------------------------------
# analytic law

def test_analytic_frozen_values():
    exact, gauss = analytic_survival(4e9, 1e-10, 10)
    assert exact == pytest.approx(0.1930935714, rel=1e-8)  # [cos^2(0.4)]^10
    assert gauss == pytest.approx(np.exp(-1.6), rel=1e-12)
    exact, gauss = analytic_survival(4e9, 1e-11, 100)
    assert exact == pytest.approx(0.8521074161, rel=1e-8)
    assert gauss == pytest.approx(np.exp(-0.16), rel=1e-12)
    exact, gauss = analytic_survival(4e9, 5e-12, 200)
    assert exact == pytest.approx(0.9231114226, rel=1e-8)
    assert gauss == pytest.approx(np.exp(-0.08), rel=1e-12)


def test_analytic_gaussian_converges_to_exact():
    # fixed T = 1 ns, shrinking tau: the gap closes below 1% once J*tau <= 0.02
    j, T = 4e9, 1e-9
    for tau in (5e-12, 2e-12, 1e-12):
        n = round(T / tau)
        exact, gauss = analytic_survival(j, tau, n)
        assert abs(gauss - exact) / exact < 1e-2, tau
    # and the tau = 0.1 ns point is visibly off the gaussian law
    exact, gauss = analytic_survival(j, 1e-10, 10)
    assert abs(gauss - exact) / exact > 0.04


def test_analytic_degenerate_inputs():
    assert analytic_survival(4e9, 0.0, 50) == (1.0, 1.0)
    assert analytic_survival(4e9, 1e-11, 0) == (1.0, 1.0)
    assert analytic_survival(0.0, 1e-11, 50) == (1.0, 1.0)
    with pytest.raises(ValueError):
        analytic_survival(-1.0, 1e-11, 5)
    with pytest.raises(ValueError):
        analytic_survival(4e9, -1e-11, 5)
    with pytest.raises(ValueError):
        analytic_survival(4e9, 1e-11, -5)


# ---------------------------------------------------------------------------
# protocol runs

def test_single_measurement_is_cos_squared():
    proto = ZenoProtocol(tau=1e-10, n_measurements=1, params=FREE)
    result = run_zeno(proto)
    assert result.survival[0] == 1.0
    assert result.survival[1] == pytest.approx(np.cos(4e9 * 1e-10) ** 2, abs=1e-10)


def test_run_matches_exact_law_at_every_step():
    proto = ZenoProtocol(tau=1e-11, n_measurements=100, params=FREE)
    result = run_zeno(proto)
    p1 = np.cos(4e9 * 1e-11) ** 2
    for k in range(101):
        assert abs(result.survival[k] - p1**k) < 1e-9, k
    # projective reset makes every step identical when gamma = 0
    assert abs(result.step_probability - p1) < 1e-12


def test_times_grid():
    proto = ZenoProtocol(tau=2e-11, n_measurements=5, params=FREE)
    result = run_zeno(proto)
    assert np.allclose(result.times, 2e-11 * np.arange(6))
    assert result.survival.shape == (6,)


def test_survival_monotone_in_step_count():
    proto = ZenoProtocol(tau=1e-11, n_measurements=50, params=FREE_DEPH)
    result = run_zeno(proto)
    assert np.all(np.diff(result.survival) <= 0.0)


def test_more_frequent_measurement_preserves_better():
    # fixed T = 1 ns
    finals = []
    for tau, n in ((1e-10, 10), (1e-11, 100), (5e-12, 200)):
        proto = ZenoProtocol(tau=tau, n_measurements=n, params=FREE)
        finals.append(run_zeno(proto).survival[-1])
    assert finals[0] < finals[1] < finals[2]


def test_dephasing_lowers_survival():
    params_hot = SystemParams(omega0=1.5e11, J=4.0e9, gamma=5.0e7)
    cold = run_zeno(ZenoProtocol(tau=1e-11, n_measurements=100, params=FREE))
    hot = run_zeno(ZenoProtocol(tau=1e-11, n_measurements=100, params=params_hot))
    assert np.all(hot.survival[1:] < cold.survival[1:])
    assert np.all(hot.survival <= cold.survival + 1e-15)


def test_no_coupling_means_no_decay():
    params = SystemParams(omega0=1.5e11, J=0.0, gamma=0.0)
    proto = ZenoProtocol(tau=1e-10, n_measurements=20, params=params)
    result = run_zeno(proto)
    assert np.allclose(result.survival, 1.0, atol=1e-12)


def test_extinguished_chain_raises():
    # target (|1> + |4>)/sqrt(2) with J = 0: after tau = pi/(2 w0) the
    # (1,4) coherence has rotated by pi and the overlap hits zero
    omega0 = 1.0e10
    params = SystemParams(omega0=omega0, J=0.0, gamma=0.0)
    proto = ZenoProtocol(
        tau=np.pi / (2.0 * omega0),
        n_measurements=3,
        params=params,
        target=named_state("p"),
    )
    with pytest.raises(ValueError, match="extinguished"):
        run_zeno(proto)
