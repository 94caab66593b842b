import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dopri5,
    expm_samples,
    fastest_rate,
    free_block_solution,
    integrate,
    random_pure,
)
from qdimer import integrate as integrate_mod
from qdimer import states as states_mod
from qdimer.integrate import UniformGrid, _exponential, closed_form_free, integrate_blocks
from qdimer.liouville import SystemParams, superoperator
from qdimer.scenarios import NH3, Scenario, catalog
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
    tol = 1e-12 + 16.0 * EPS * fastest_rate(params) * times[-1]
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
    free = [sc for sc in catalog() if isinstance(sc, Scenario) and not sc.params.driven]
    assert len(free) == 3
    for sc in free:
        rho0 = pure_density(named_state(sc.initial))
        times = np.linspace(0.0, sc.horizon, sc.samples)
        states = integrate("derived", rho0, sc.params, times)
        worst = np.max(np.abs(states - closed_form_free(rho0, sc.params, times)))
        assert worst <= 1e-12, (sc.name, worst)


@pytest.mark.parametrize(
    "name", [sc.name for sc in catalog() if isinstance(sc, Scenario) and sc.params.driven]
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
    tol = 1e-12 + 16.0 * EPS * fastest_rate(params) * horizon
    assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= tol
    assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) <= tol
    assert np.min(np.linalg.eigvalsh(states)) >= -tol
    if params.Omega == 0.0:
        assert np.max(np.abs(states - closed_form_free(rho0, params, times))) <= tol


# P swaps the bare states |2> = |g1 e2> and |3> = |e1 g2>, which exchanges the
# molecules; on vec(rho), row-major, it acts as P16 = P (x) P
SWAP = np.eye(4)[[0, 2, 1, 3]]
SWAP16 = np.kron(SWAP, SWAP)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_runs())
def test_derived_generator_is_exchange_symmetric(run):
    # the pair's two molecules are identical, and so, bit for bit, is the
    # generator seen with them exchanged
    params = run[0]
    lv = superoperator("derived", params)
    assert np.array_equal(SWAP16 @ lv @ SWAP16, lv)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_runs(), st.integers(1000, 2000))
def test_walk_is_exchange_covariant(run, samples):
    # walking the exchanged start gives the exchanged states, over a long grid
    params, horizon, _, seed = run
    rho0 = pure_density(random_pure(np.random.default_rng(seed)))
    times = np.linspace(0.0, horizon, samples)
    states = integrate("derived", rho0, params, times)
    swapped = integrate("derived", SWAP @ rho0 @ SWAP, params, times)
    tol = 1e-12 + 16.0 * EPS * fastest_rate(params) * horizon
    assert np.max(np.abs(swapped - SWAP @ states @ SWAP)) <= tol


def test_published_generator_breaks_exchange_symmetry():
    # the premise of `audit`: the published rows for rho22, rho33 and the
    # closure row rho44 (vec rows 5, 10 and 15) are not exchange symmetric,
    # by up to 4J at the NH3 rates
    lv = superoperator("published", NH3)
    broken = SWAP16 @ lv @ SWAP16 - lv
    assert np.flatnonzero(np.any(broken != 0.0, axis=1)).tolist() == [5, 10, 15]
    assert np.max(np.abs(broken)) == 4.0 * NH3.J


# the edge cases of random_runs, each held in turn, free and driven (a drive
# of 1e3 J only driven)
LONG_EDGES = [(edge, driven) for edge in ("J = 0", "gamma = 0", "gamma = 2J", "Omega = 1e3 J")
              for driven in (False, True) if driven or edge != "Omega = 1e3 J"]


@st.composite
def edge_runs(draw, edge, driven):
    """random_runs' rates with one edge case held, on a 1e3..1e4-sample grid."""
    j = 0.0 if edge == "J = 0" else draw(st.floats(1e6, 1e10))
    gamma = {"gamma = 0": 0.0, "gamma = 2J": 2.0 * j}.get(edge)
    if gamma is None:
        gamma = draw(st.floats(0.0, 1e10))
    omega = 0.0
    if driven:
        omega = 1e3 * j if edge == "Omega = 1e3 J" else draw(st.floats(1e5, 1e11))
    params = SystemParams(
        omega0=draw(st.floats(0.0, 2e11)),
        J=j,
        gamma=gamma,
        Omega=omega,
        delta_l=draw(st.floats(-1e10, 1e10)) if driven else 0.0,
        driven=driven,
    )
    horizon = 10.0 ** draw(st.floats(-12.0, -5.0))
    return params, horizon, draw(st.integers(1000, 10000)), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("edge, driven", LONG_EDGES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_long_walk_matches_expm_at_checkpoints(edge, driven, data):
    # each step adds a rounding error of about eps, and exp(L dt) one of about
    # eps * |L dt|, so after k steps the walk may be off by eps * (k + |L| t),
    # with |L| taken as the fastest rate; 120 draws of these cases reached at
    # most 0.9 of that, and the bound allows 16 times it
    params, horizon, samples, seed = data.draw(edge_runs(edge, driven))
    rho0 = pure_density(random_pure(np.random.default_rng(seed)))
    grid = UniformGrid(horizon, samples)
    checkpoints = [samples // 10, samples // 2, samples - 1]
    walked = {}
    for rows, states in integrate_blocks("derived", rho0, params, grid):
        for k in checkpoints:
            if rows.start <= k < rows.stop:
                walked[k] = states[k - rows.start]
    times = grid[slice(0, samples)][checkpoints]
    exact = expm_samples("derived", rho0, params, times)
    for k, t, reference in zip(checkpoints, times, exact):
        bound = 16.0 * EPS * (k + fastest_rate(params) * t)
        assert np.max(np.abs(walked[k] - reference)) <= bound, (k, t)


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


def test_walk_stops_at_the_first_failing_block_and_reports_its_drift(monkeypatch):
    # the switch_off trigger probe under the published generator: its trace
    # leaves 1e-6 at sample 1071 and grows to 1.9e10 by the end; every block
    # before the one holding that sample is yielded, that one raises with its
    # own drift, and no later block is stepped
    sc = next(s for s in catalog() if s.name == "switch_off")
    rho0 = pure_density(named_state(sc.initial))
    times = np.linspace(0.0, 1.2 * np.pi / (np.sqrt(2.0) * sc.params.Omega), 3001)
    # the unguarded reference: the walk's own steps exp(L dt), applied here
    lv = superoperator("published", sc.params)
    steps = {}
    y = rho0.reshape(16).astype(complex)
    raw = np.empty((times.size, 4, 4), dtype=complex)
    for k, dt in enumerate(np.diff(times, prepend=0.0).tolist()):
        if dt != 0.0:
            if dt not in steps:
                steps[dt] = _exponential(lv * dt)
            y = steps[dt] @ y
        raw[k] = y.reshape(4, 4)
    drift = np.abs(np.einsum("kii->k", raw).real - 1.0)
    first_bad = int(np.flatnonzero(drift > 1e-6)[0])
    clean = list(blocks(first_bad // BLOCK * BLOCK))
    failing = slice(len(clean) * BLOCK, (len(clean) + 1) * BLOCK)
    assert len(clean) >= 2
    stepped = []

    def counted(n):
        for rows in blocks(n):
            stepped.append(rows)
            yield rows

    monkeypatch.setattr(integrate_mod, "blocks", counted)
    yielded = []
    with pytest.raises(ValueError) as streamed:
        for rows, states in integrate_blocks("published", rho0, sc.params, times):
            yielded.append(rows)
            assert np.array_equal(states, raw[rows])
    assert yielded == clean
    assert stepped == [*clean, failing]
    assert str(streamed.value) == (
        f"trace drifted by {np.max(drift[failing]):.3e} during integration")
    assert np.max(drift[failing]) < np.max(drift)
    with pytest.raises(ValueError) as whole:
        integrate("published", rho0, sc.params, times)
    assert str(whole.value) == str(streamed.value)


def test_walk_reports_an_overflowed_state():
    # one step of 10 us under the published generator's growing mode at the
    # resonant drive overflows the state, which numpy is not let warn about
    sc = next(s for s in catalog() if s.name == "driven_resonant")
    rho0 = pure_density(named_state(sc.initial))
    with pytest.raises(ValueError) as info:
        list(integrate_blocks("published", rho0, sc.params, np.array([0.0, 1e-5])))
    assert str(info.value) == "the state overflowed during integration (trace drift nan)"


@pytest.mark.parametrize("bad, message", [
    (BLOCK + 3, "finite"),
    (BLOCK, "strictly increasing"),
    (2 * BLOCK - 1, "strictly increasing"),
], ids=["nan", "repeat-at-block-edge", "repeat-in-block"])
def test_grid_is_checked_a_block_at_a_time(bad, message):
    # a bad sample in a later block raises once the walk reaches it, after
    # the blocks before it were yielded, at a block edge too
    times = np.linspace(0.0, 1e-9, 3 * BLOCK)
    times[bad] = np.nan if message == "finite" else times[bad - 1]
    walk = integrate_blocks("derived", pure_density(named_state("e1g2")), FREE, times)
    assert next(walk)[0] == slice(0, BLOCK)
    with pytest.raises(ValueError, match=message):
        next(walk)


def test_uniform_grid_is_linspace_block_by_block():
    # the walk computes each block's times as it reaches them; they are
    # np.linspace's bytes, on grids that end on, one before and one past a
    # block edge as much as on random ones.  A numpy whose linspace rounds
    # otherwise fails here
    rng = np.random.default_rng(26)
    edges = [(1e-9, n) for n in (2, 3, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 1)]
    drawn = [(10.0 ** rng.uniform(-13.0, 1.0), int(rng.integers(2, 4 * BLOCK)))
             for _ in range(300)]
    for horizon, n in edges + drawn:
        grid = UniformGrid(horizon, n)
        times = np.linspace(0.0, horizon, n)
        for rows in blocks(n):
            assert grid[rows].tobytes() == times[rows].tobytes(), (horizon, n, rows)
        assert grid[:].tobytes() == times.tobytes()


def test_walk_over_a_uniform_grid_is_the_walk_over_linspace():
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 5e-9, 2 * BLOCK + 1)
    assert np.array_equal(integrate("derived", rho0, FREE, UniformGrid(5e-9, times.size)),
                          integrate("derived", rho0, FREE, times))


@pytest.mark.parametrize("horizon, size, message", [
    (1e-9, 1, "at least 2 samples"),
    (1e-9, 2.0, "samples must be an integer"),
    (0.0, 3, "horizon must be > 0"),
    (np.inf, 3, "horizon must be > 0"),
])
def test_uniform_grid_refuses_bad_values(horizon, size, message):
    with pytest.raises(ValueError, match=message):
        UniformGrid(horizon, size)


def test_walk_holds_no_whole_grid_temporary():
    # the grid was once checked whole up front, with a 1 B/sample mask and an
    # 8 B/sample np.diff: 9 MB traced at 10**6 samples; the walk now holds
    # one block at a time.  Every block costs the same, so a few stand for
    # all (the whole walk takes 20 s under tracemalloc)
    times = np.linspace(0.0, 1e-6, 10**6)
    rho0 = pure_density(named_state("e1g2"))
    tracemalloc.start()
    try:
        for _ in itertools.islice(integrate_blocks("derived", rho0, FREE, times), 4):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


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
# the raw published rows

def test_raw_published_trace_grows_quadratically():
    rho0 = pure_density(named_state("e1g2"))
    times = np.linspace(0.0, 5e-10, 11)
    states = integrate("published", rho0, FREE_NODEPH, times, closure=False)
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
