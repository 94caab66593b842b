import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dopri5, expm_samples, free_block_solution, integrate, random_pure
from qdimer import states as states_mod
from qdimer.integrate import closed_form_free, integrate_blocks
from qdimer.liouville import SystemParams
from qdimer.scenarios import catalog
from qdimer.states import BLOCK, blocks, named_state, population, pure_density

FREE = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
FREE_NODEPH = SystemParams(omega0=1.5e11, J=4.0e9, gamma=0.0)
EPS = np.finfo(float).eps


def random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# input contract

def test_config_validation():
    rho0 = pure_density(named_state("e1g2"))
    assert integrate("derived", rho0, FREE, np.linspace(0.0, 1e-9, 5)).shape == (5, 4, 4)
    for bad, message in [
        (np.array([0.0, 1e-9, 1e-9]), "strictly increasing"),
        (np.array([-1e-9, 1e-9]), "start at >= 0"),
        (np.array([]), "non-empty"),
        (np.zeros((2, 2)), "1-d"),
    ]:
        with pytest.raises(ValueError, match=message):
            integrate("derived", rho0, FREE, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_non_finite_times(bad):
    rho0 = pure_density(named_state("e1g2"))
    with pytest.raises(ValueError, match="finite"):
        integrate("derived", rho0, FREE, np.array([0.0, 1e-9, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rho0_must_be_finite(bad):
    rho0 = pure_density(named_state("e1g2"))
    rho0[1, 2] = bad
    times = np.linspace(0.0, 1e-9, 3)
    with pytest.raises(ValueError, match="finite"):
        integrate("derived", rho0, FREE, times)


# ---------------------------------------------------------------------------
# basic behaviour

def test_zero_generator_keeps_state_constant():
    params = SystemParams(omega0=0.0, J=0.0, gamma=0.0)
    rho0 = pure_density(named_state("f"))
    times = np.linspace(0.0, 1e-6, 7)
    states = integrate("derived", rho0, params, times)
    for state in states:
        assert np.array_equal(state, rho0)


def test_population_swap_at_quarter_period():
    # half swap: rho22(pi/2J) = sin^2(J t) = 1
    t_half = np.pi / (2.0 * FREE_NODEPH.J)
    times = np.array([0.0, t_half])
    states = integrate("derived", pure_density(named_state("e1g2")), FREE_NODEPH, times)
    rho22 = states[-1][1, 1].real
    assert abs(rho22 - 1.0) < 1e-8


def test_sample_at_t0_is_initial_state():
    times = np.array([0.0, 1e-10])
    rho0 = pure_density(named_state("L1L2"))
    states = integrate("derived", rho0, FREE, times)
    assert np.array_equal(states[0], rho0)


@pytest.mark.parametrize("initial", ["e1g2", "L1L2", "f"])
@pytest.mark.parametrize("params", [FREE, FREE_NODEPH], ids=["gamma1e6", "gamma0"])
def test_long_step_matches_closed_form(initial, params):
    # one step of 10 us: |L dt|_1 = 3e6, so exp(L dt) takes 21 squarings
    rho0 = pure_density(named_state(initial))
    times = np.array([0.0, 1e-5])
    states = integrate("derived", rho0, params, times)
    # phi radians of phase carry a rounding error of about eps * phi
    tol = 1e-12 + 16.0 * EPS * params.fastest_rate() * times[-1]
    assert np.max(np.abs(states - closed_form_free(rho0, params, times))) <= tol


def test_first_sample_after_t0_works():
    # grid that does not include zero
    times = np.array([2e-10, 4e-10])
    rho0 = pure_density(named_state("e1g2"))
    states = integrate("derived", rho0, FREE_NODEPH, times)
    expected = closed_form_free(rho0, FREE_NODEPH, 2e-10)
    assert np.max(np.abs(states[0] - expected)) < 1e-9


# ---------------------------------------------------------------------------
# oracle equivalence on the free scenarios

@pytest.mark.parametrize("initial", ["e1g2", "L1L2", "L1R2"])
def test_oracle_equivalence_free(initial):
    times = np.linspace(0.0, 5e-9, 301)
    rho0 = pure_density(named_state(initial))
    states = integrate("derived", rho0, FREE, times)
    worst = 0.0
    for t, state in zip(times, states):
        exact = closed_form_free(rho0, FREE, t)
        worst = max(worst, np.max(np.abs(state - exact)))
    assert worst <= 1e-7, worst


def test_free_presets_match_closed_form():
    free = [sc for sc in catalog() if not sc.params.driven and not sc.zeno_taus]
    assert len(free) == 3
    for sc in free:
        rho0 = pure_density(named_state(sc.initial))
        times = np.linspace(0.0, sc.horizon, sc.samples)
        states = integrate("derived", rho0, sc.params, times)
        worst = np.max(np.abs(states - closed_form_free(rho0, sc.params, times)))
        assert worst <= 1e-12, (sc.name, worst)


@pytest.mark.parametrize(
    "name", [sc.name for sc in catalog() if sc.params.driven]
)
def test_driven_presets_match_oracle(name):
    # each driven preset's parameters on its own sample grid and full
    # horizon, without the switch-off, against one exponential per sample
    sc = next(s for s in catalog() if s.name == name)
    rho0 = pure_density(named_state(sc.initial))
    times = np.linspace(0.0, sc.horizon, sc.samples)
    states = integrate("derived", rho0, sc.params, times)
    assert np.max(np.abs(states - expm_samples("derived", rho0, sc.params, times))) <= 1e-7


def test_driven_detuned_matches_dormand_prince():
    # a reference that uses no exponential: driven_detuned_s's full 0.2 us
    # grid, about three periods of the sqrt(2)*Omega exchange (the stepper
    # takes 40-60k steps per us; its own error is 1e-9 to 1.5e-8)
    sc = next(s for s in catalog() if s.name == "driven_detuned_s")
    rho0 = pure_density(named_state(sc.initial))
    times = np.linspace(0.0, sc.horizon, sc.samples)
    states = integrate("derived", rho0, sc.params, times)
    reference, _ = dopri5("derived", rho0, sc.params, times)
    assert np.max(np.abs(states - reference)) <= 1e-7


def test_rho_pp_oscillates_at_twice_the_splitting():
    # three periods of the cos(2 w0 t) beat in the (1,4) coherence
    params = FREE_NODEPH
    horizon = 3.0 * np.pi / params.omega0
    times = np.linspace(0.0, horizon, 121)
    rho0 = pure_density(named_state("L1L2"))
    states = integrate("derived", rho0, params, times)
    p_state = named_state("p")
    q_state = named_state("q")
    for t, state in zip(times, states):
        assert abs(population(state, p_state) - 0.5 * np.cos(params.omega0 * t) ** 2) < 1e-7
        assert abs(population(state, q_state) - 0.5 * np.sin(params.omega0 * t) ** 2) < 1e-7


# ---------------------------------------------------------------------------
# convergence and drift

def test_trace_and_hermiticity_drift_over_microsecond():
    params = SystemParams(
        omega0=1.5e11, J=4.0e9, gamma=1.0e6, Omega=7.0e7, delta_l=0.0, driven=True
    )
    times = np.linspace(0.0, 1e-6, 11)
    states = integrate("derived", pure_density(named_state("e1e2")), params, times)
    for state in states:
        assert abs(np.trace(state).real - 1.0) < 1e-8
        assert abs(np.trace(state).imag) < 1e-12
        assert np.max(np.abs(state - state.conj().T)) < 1e-10


def test_no_drift_over_1e5_samples():
    # each sample starts from the last, so rounding may accumulate, at most
    # linearly in the number of samples
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 5e-8, 100001)
    states = integrate("derived", rho0, FREE, times)
    worst = np.max(np.abs(states - closed_form_free(rho0, FREE, times)))
    assert worst <= times.size * EPS, worst


@st.composite
def random_runs(draw):
    """Rates, horizon and grid for one run, with the edge cases drawn on
    purpose: J = 0, gamma = 0, the exceptional point gamma = 2J, and a
    drive a thousand times the exchange rate."""
    j = draw(st.just(0.0) | st.floats(1e6, 1e10))
    gamma = draw(st.sampled_from((0.0, 2.0 * j)) | st.floats(0.0, 1e10))
    driven = draw(st.booleans())
    params = SystemParams(
        omega0=draw(st.floats(0.0, 2e11)),
        J=j,
        gamma=gamma,
        Omega=draw(st.just(1e3 * j) | st.floats(1e5, 1e11)) if driven else 0.0,
        delta_l=draw(st.floats(-1e10, 1e10)) if driven else 0.0,
        driven=driven,
    )
    horizon = 10.0 ** draw(st.floats(-12.0, -5.0))
    return params, horizon, draw(st.integers(2, 20)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_runs())
def test_propagator_properties(run):
    params, horizon, samples, seed = run
    rho0 = pure_density(random_pure(np.random.default_rng(seed)))
    times = np.linspace(0.0, horizon, samples)
    states = integrate("derived", rho0, params, times)
    # phi radians of phase carry a rounding error of about eps * phi, in the
    # closed form as much as in the propagator
    tol = 1e-12 + 16.0 * EPS * params.fastest_rate() * horizon
    assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= tol
    assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) <= tol
    assert np.min(np.linalg.eigvalsh(states)) >= -tol
    if params.Omega == 0.0:
        assert np.max(np.abs(states - closed_form_free(rho0, params, times))) <= tol


def test_determinism_bitwise():
    times = np.linspace(0.0, 2e-9, 17)
    rho0 = pure_density(named_state("L1L2"))
    one = integrate("derived", rho0, FREE, times)
    two = integrate("derived", rho0, FREE, times)
    assert np.array_equal(one, two)


# ---------------------------------------------------------------------------
# the block walk

def test_blocks_concatenate_to_the_stack(monkeypatch):
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 5e-9, 2 * BLOCK + 7)
    walk = list(integrate_blocks("derived", rho0, FREE, times))
    assert [rows for rows, _ in walk] == [
        slice(0, BLOCK), slice(BLOCK, 2 * BLOCK), slice(2 * BLOCK, 2 * BLOCK + 7)
    ]
    stack = np.concatenate([states for _, states in walk])
    # the same states as a walk that takes the whole grid as one block
    monkeypatch.setattr(states_mod, "BLOCK", times.size)
    [(rows, whole)] = integrate_blocks("derived", rho0, FREE, times)
    assert rows == slice(0, times.size)
    assert np.array_equal(stack, whole)


def test_walk_stops_at_the_first_failing_block_and_reports_the_whole_grid():
    # the switch_off trigger probe under the published generator: its trace
    # leaves 1e-6 at sample 1071 and grows to 1.9e10; every block before the
    # one holding that sample is yielded, and no later one
    sc = next(s for s in catalog() if s.name == "switch_off")
    rho0 = pure_density(named_state(sc.initial))
    times = np.linspace(0.0, 1.2 * np.pi / (np.sqrt(2.0) * sc.params.Omega), 3001)
    raw = integrate("published", rho0, sc.params, times, trace_guard=False)
    drift = np.abs(np.einsum("kii->k", raw).real - 1.0)
    first_bad = int(np.flatnonzero(drift > 1e-6)[0])
    clean = list(blocks(first_bad // BLOCK * BLOCK))
    assert len(clean) >= 2
    yielded = []
    with pytest.raises(ValueError) as streamed:
        for rows, states in integrate_blocks("published", rho0, sc.params, times):
            yielded.append(rows)
            assert np.array_equal(states, raw[rows])
    assert yielded == clean
    assert str(streamed.value) == f"trace drifted by {np.max(drift):.3e} during integration"
    with pytest.raises(ValueError) as whole:
        integrate("published", rho0, sc.params, times)
    assert str(whole.value) == str(streamed.value)


# ---------------------------------------------------------------------------
# closed-form propagator

def test_closed_form_t0_and_validation():
    rho0 = pure_density(named_state("f"))
    assert np.allclose(closed_form_free(rho0, FREE, 0.0), rho0, atol=1e-15)
    driven = SystemParams(
        omega0=1.5e11, J=4e9, gamma=0.0, Omega=1e7, delta_l=0.0, driven=True
    )
    with pytest.raises(ValueError):
        closed_form_free(rho0, driven, 1e-9)
    with pytest.raises(ValueError):
        closed_form_free(rho0, FREE, -1e-9)


def test_closed_form_excited_population_cosine():
    rho0 = pure_density(named_state("e1g2"))
    for t in (0.0, 3e-11, 1.7e-10, 6e-10):
        rho = closed_form_free(rho0, FREE_NODEPH, t)
        assert abs(rho[2, 2].real - np.cos(FREE_NODEPH.J * t) ** 2) < 1e-12


def test_closed_form_14_coherence_rotation():
    rho0 = pure_density(named_state("L1L2"))
    params = SystemParams(omega0=2.0e10, J=3.0e9, gamma=5.0e8)
    for t in (1e-11, 7e-11, 3e-10):
        rho = closed_form_free(rho0, params, t)
        expected = 0.25 * np.exp((2j * params.omega0 - 2.0 * params.gamma) * t)
        assert abs(rho[0, 3] - expected) < 1e-12


def test_closed_form_23_block_against_independent_solution():
    rng = np.random.default_rng(23)
    for gamma in (0.0, 5.0e8, 9.0e9):  # under-, critically-ish and over-damped
        params = SystemParams(omega0=1.0e10, J=2.0e9, gamma=gamma)
        rho0 = random_density(rng)
        for t in (2e-11, 1.3e-10, 8e-10):
            rho = closed_form_free(rho0, params, t)
            y0 = 2.0 * rho0[1, 2].imag
            z0 = (rho0[1, 1] - rho0[2, 2]).real
            y, z = free_block_solution(params.J, params.gamma, y0, z0, t)
            assert abs(2.0 * rho[1, 2].imag - y) < 1e-10
            assert abs((rho[1, 1] - rho[2, 2]).real - z) < 1e-10
            # the real part decays on its own at 2 gamma
            x_expected = 2.0 * rho0[1, 2].real * np.exp(-2.0 * gamma * t)
            assert abs(2.0 * rho[1, 2].real - x_expected) < 1e-10


def test_closed_form_single_flip_coherence_modes():
    # (rho12 +/- rho13) rotate at delta +/- J and decay at gamma
    rng = np.random.default_rng(29)
    params = SystemParams(omega0=7.0e9, J=2.0e9, gamma=3.0e8)
    rho0 = random_density(rng)
    t = 4.3e-10
    rho = closed_form_free(rho0, params, t)
    d, j, g = params.omega0, params.J, params.gamma
    plus0 = rho0[0, 1] + rho0[0, 2]
    minus0 = rho0[0, 1] - rho0[0, 2]
    plus = plus0 * np.exp((1j * (d + j) - g) * t)
    minus = minus0 * np.exp((1j * (d - j) - g) * t)
    assert abs((rho[0, 1] + rho[0, 2]) - plus) < 1e-10
    assert abs((rho[0, 1] - rho[0, 2]) - minus) < 1e-10


def test_closed_form_vector_times():
    rho0 = pure_density(named_state("e1g2"))
    ts = np.array([0.0, 1e-10, 2e-10])
    out = closed_form_free(rho0, FREE, ts)
    assert out.shape == (3, 4, 4)
    for k, t in enumerate(ts):
        assert np.allclose(out[k], closed_form_free(rho0, FREE, float(t)))


def test_closed_form_overdamped_long_time():
    # gamma * t = 2000: cosh and sinh of mu * t alone would overflow
    params = SystemParams(omega0=1.0e10, J=1.0e9, gamma=1.0e10)
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 2e-7, 5)
    exact = closed_form_free(rho0, params, times)
    assert np.all(np.isfinite(exact))
    states = integrate("derived", rho0, params, times)
    assert np.max(np.abs(states - exact)) < 1e-12


def test_closed_form_matches_integrator_with_dephasing():
    rho0 = pure_density(named_state("f"))
    times = np.linspace(0.0, 5e-9, 101)
    states = integrate("derived", rho0, FREE, times)
    for t, state in zip(times, states):
        assert np.max(np.abs(state - closed_form_free(rho0, FREE, t))) < 1e-9


# ---------------------------------------------------------------------------
# trace guard and the raw published rows

def test_trace_guard_trips_on_raw_published_rows():
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 5e-10, 11)
    with pytest.raises(ValueError):
        integrate("published", rho0, FREE_NODEPH, times, closure=False)


def test_raw_published_trace_grows_quadratically():
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 5e-10, 11)
    states = integrate(
        "published", rho0, FREE_NODEPH, times, closure=False, trace_guard=False
    )
    j = FREE_NODEPH.J
    for t, state in zip(times, states):
        expected = 1.0 + 2.0 * (j * t) ** 2
        assert abs(np.trace(state).real - expected) < 1e-6 * expected


def test_published_with_closure_from_excited_state():
    # the closed published system freezes rho33 - rho22 at its initial value
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 2e-9, 21)
    states = integrate("published", rho0, FREE_NODEPH, times)
    j = FREE_NODEPH.J
    for t, state in zip(times, states):
        diff = (state[2, 2] - state[1, 1]).real
        assert abs(diff - 1.0) < 1e-9
        # and the populations grow secularly, rho22 = (J t)^2
        assert abs(state[1, 1].real - (j * t) ** 2) < 1e-6 * max(1.0, (j * t) ** 2)
