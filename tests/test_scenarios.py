import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import integrate
from qdimer import scenarios as scenarios_mod
from qdimer.integrate import UniformGrid
from qdimer.liouville import SystemParams, superoperator
from qdimer.scenarios import (
    OBSERVABLES,
    Scenario,
    ZenoSweep,
    catalog,
    find_first_maximum,
    run_scenario,
)
from qdimer.states import BLOCK, named_state, pure_density
from qdimer.zeno import analytic_survival, run_zeno

FREE = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
DRIVE_S = SystemParams(
    omega0=1.5e11, J=4.0e9, gamma=1.0e6, Omega=4.0e7, delta_l=4.0e9, driven=True
)


def preset(name):
    match = [s for s in catalog() if s.name == name]
    assert len(match) == 1, name
    return match[0]


# ---------------------------------------------------------------------------
# catalog and validation

def test_catalog_names_and_shapes():
    names = [s.name for s in catalog()]
    assert names == [
        "free_eg",
        "free_LL",
        "free_LR",
        "driven_resonant",
        "driven_detuned_s",
        "driven_detuned_a",
        "switch_off",
        "switch_off_gamma1e5",
        "zeno_sweep",
    ]
    eg = preset("free_eg")
    assert eg.initial == "e1g2"
    assert eg.params.J == 4.0e9 and eg.params.gamma == 1.0e6
    assert not eg.params.driven
    assert "C" in eg.observables and "rho_ff" in eg.observables
    sw = preset("switch_off")
    assert sw.field_off_time == "auto"
    assert sw.params.driven and sw.params.delta_l == 4.0e9
    zs = preset("zeno_sweep")
    assert isinstance(zs, ZenoSweep)
    assert (zs.J, zs.gamma, zs.horizon) == (4.0e9, 1.0e6, 1e-9)
    assert zs.zeno_taus == (1e-10, 1e-11, 5e-12)


def test_scenario_validation():
    ok = dict(name="x", initial="e1g2", params=FREE, horizon=1e-9,
              observables=("rho11",))
    with pytest.raises(ValueError):
        Scenario(**{**ok, "horizon": 0.0})
    with pytest.raises(ValueError):
        Scenario(**{**ok, "samples": 1})
    with pytest.raises(ValueError, match="unknown observables"):
        Scenario(**{**ok, "observables": ("rho11", "bogus")})
    # no columns once wrote the header "t_s," and rows of t alone
    with pytest.raises(ValueError, match="observables must list at least one name"):
        Scenario(**{**ok, "observables": ()})
    # a repeated name once wrote two identical columns under one header name
    with pytest.raises(ValueError, match=r"\['C', 'rho11'\] are listed more than once"):
        Scenario(**{**ok, "observables": ("C", "rho11", "rho_ss", "rho11", "C")})
    with pytest.raises(ValueError, match="driven"):
        Scenario(**{**ok, "field_off_time": 5e-10})
    with pytest.raises(ValueError):
        Scenario(**{**ok, "params": DRIVE_S, "field_off_time": 2e-9})  # > horizon
    with pytest.raises(ValueError):
        Scenario(**{**ok, "params": DRIVE_S, "field_off_time": "later"})
    with pytest.raises(ValueError, match="nonzero drive"):
        Scenario(**{**ok, "params": replace(DRIVE_S, Omega=0.0), "field_off_time": "auto"})
    sweep = dict(name="x", J=4.0e9, gamma=1.0e6, horizon=1e-9, zeno_taus=(1e-10,))
    with pytest.raises(ValueError, match="Zeno window"):
        ZenoSweep(**{**sweep, "J": 3e10})
    with pytest.raises(ValueError, match="does not divide"):
        ZenoSweep(**{**sweep, "zeno_taus": (1e-10, 3e-11)})  # 3e-11 vs grid 1e-10
    with pytest.raises(ValueError, match="does not divide"):
        ZenoSweep(**{**sweep, "horizon": 2.5e-10})
    # a bool or a string once passed for a number, and a list for a name
    for field, bad, message in [
        ("horizon", True, "horizon"), ("horizon", "1e-9", "horizon"),
        ("initial", ["e1g2"], "initial"), ("observables", "C", "observables"),
        ("observables", (["C"],), "observables"),
    ]:
        with pytest.raises(ValueError, match=message):
            Scenario(**{**ok, field: bad})
    with pytest.raises(ValueError, match="zeno_taus"):
        ZenoSweep(**{**sweep, "zeno_taus": ("a",)})


@pytest.mark.parametrize("field, bad, message", [
    ("horizon", 10**400, "horizon must be > 0, got 1.000e+400"),
    ("horizon", -10**400, "horizon must be > 0, got -1.000e+400"),
    ("samples", 10**400, "1.000e+400 samples are above the cap of 10000000"),
    ("zeno_taus", (1e-10, "a"), "zeno_taus must be > 0, got 'a'"),
    ("zeno_taus", (1e-10, 10**400), "zeno_taus must be > 0, got 1.000e+400"),
], ids=["horizon-plus", "horizon-minus", "samples-plus", "zeno_taus-str", "zeno_taus-plus"])
def test_scenario_names_the_one_bad_value(field, bad, message):
    # a horizon of 10**400 once raised OverflowError; zeno_taus once printed every tau
    if field == "zeno_taus":
        build, ok = ZenoSweep, dict(name="x", J=4.0e9, gamma=1.0e6, horizon=1e-9,
                                    zeno_taus=(1e-10,))
    else:
        build, ok = Scenario, dict(name="x", initial="f", params=FREE, horizon=1e-9,
                                   observables=("rho11",))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(**{**ok, field: bad})


REPEATED_LABEL = ("observables ['exact_tau0.1ns', 'gauss_tau0.1ns', 'survival_tau0.1ns'] "
                  "are listed more than once")


@pytest.mark.parametrize("bad, message", [
    ({"J": -1.0}, "J must be >= 0, got -1.0"),
    ({"gamma": float("nan")}, "gamma must be a finite number, got nan"),
    ({"horizon": 0.0}, "horizon must be > 0, got 0.0"),
    # an empty zeno_taus once raised from max() instead of naming the field
    ({"zeno_taus": ()}, "zeno_taus must list at least one tau, got ()"),
    ({"zeno_taus": 1e-10}, "zeno_taus must list at least one tau, got 1e-10"),
    ({"zeno_taus": (1e-10, 0.0)}, "zeno_taus must be > 0, got 0.0"),
    # the rates first, with SystemParams' text, then the horizon, then each tau
    ({"J": -1.0, "gamma": -1.0, "horizon": 0.0, "zeno_taus": (0.0,)}, "J must be >= 0, got -1.0"),
    ({"horizon": 0.0, "zeno_taus": (0.0,)}, "horizon must be > 0, got 0.0"),
    ({"horizon": 2.5e-10, "zeno_taus": (1e-10, 0.0)}, "zeno_taus must be > 0, got 0.0"),
    # two taus that print as 0.1ns once gave a table of each column name twice
    ({"zeno_taus": (1e-10, 1e-10)}, REPEATED_LABEL),
    ({"zeno_taus": (1e-10, 1e-10 * (1 + 1e-10))}, REPEATED_LABEL),
])
def test_zeno_sweep_names_the_first_bad_value(bad, message):
    ok = dict(name="x", J=4.0e9, gamma=1.0e6, horizon=1e-9, zeno_taus=(1e-10,))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ZenoSweep(**{**ok, **bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scenario_rejects_non_finite_horizon(bad):
    with pytest.raises(ValueError, match="horizon"):
        Scenario(name="x", initial="e1g2", params=FREE, horizon=bad,
                 observables=("rho11",))


@pytest.mark.parametrize("bad", [float("nan"), 2.5])
def test_scenario_samples_must_be_an_integer(bad):
    # a NaN count once passed validation and failed later inside np.linspace
    with pytest.raises(ValueError, match="samples must be an integer"):
        Scenario(name="x", initial="e1g2", params=FREE, horizon=1e-9,
                 observables=("rho11",), samples=bad)


def test_driven_runs_refuse_exactly_the_columns_the_frame_changes():
    # the lab frame multiplies rho_ij by exp(-i (k_i - k_j) phi), k counting
    # excitations; a column that changes under it has no value in a driven run
    rng = np.random.default_rng(17)
    a = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
    states = a @ a.conj().transpose(0, 2, 1)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    k = np.array([0, 1, 1, 2])
    phase = np.exp(-1j * (k[:, None] - k[None, :]) * rng.uniform(0.0, 2.0 * np.pi, (200, 1, 1)))
    changed = set()
    for name, observable in OBSERVABLES.items():
        lab, rotating = observable(states * phase), observable(states)
        if not np.allclose(lab, rotating, rtol=0.0, atol=1e-13):
            changed.add(name)
    assert changed == {"rho_pp", "rho_qq"}
    for params, off in [(FREE, None), (DRIVE_S, None), (DRIVE_S, "auto")]:
        for name in OBSERVABLES:
            run = dict(name="x", initial="e1e2", params=params, horizon=1e-9,
                       observables=(name,), field_off_time=off)
            if params.driven and name in changed:
                with pytest.raises(ValueError, match=f"^{name} reads Re rho14, whose phase "
                                                     "turns in the rotating frame"):
                    Scenario(**run)
            else:
                Scenario(**run)


def test_observable_registry_on_known_states():
    rho_s = pure_density(named_state("s"))
    assert OBSERVABLES["rho_ss"](rho_s) == pytest.approx(1.0, abs=1e-12)
    assert OBSERVABLES["rho_aa"](rho_s) == pytest.approx(0.0, abs=1e-12)
    assert OBSERVABLES["rho22"](rho_s) == pytest.approx(0.5, abs=1e-12)
    assert OBSERVABLES["re_rho23"](rho_s) == pytest.approx(0.5, abs=1e-12)
    assert OBSERVABLES["C"](rho_s) == pytest.approx(1.0, abs=1e-10)
    rho_1 = pure_density(named_state("g1g2"))
    assert OBSERVABLES["rho11"](rho_1) == 1.0
    assert OBSERVABLES["C"](rho_1) == 0.0
    rho_f = pure_density(named_state("f"))
    assert OBSERVABLES["rho_ff"](rho_f) == pytest.approx(1.0, abs=1e-12)
    assert OBSERVABLES["rho_kk"](rho_f) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# first-maximum search

def test_first_maximum_exact_on_parabola():
    t = np.linspace(0.0, 1.0, 11)  # 0.3 is not a grid point boundary case
    v = 3.0 - (t - 0.33) ** 2
    t_max, v_max = find_first_maximum(t, v)
    assert t_max == pytest.approx(0.33, abs=1e-12)
    assert v_max == pytest.approx(3.0, abs=1e-12)


def test_first_maximum_refines_smooth_peak():
    t = np.linspace(0.0, 1.0, 101)
    t_max, v_max = find_first_maximum(t, np.sin(np.pi * t))
    assert t_max == pytest.approx(0.5, abs=1e-3)
    assert v_max == pytest.approx(1.0, abs=1e-5)


def test_first_maximum_nanosecond_abscissa():
    # local-coordinate fit must not lose precision at 1e-8-scale times
    t = np.linspace(0.0, 6e-8, 601)
    v = np.sin(np.pi * t / 5.554e-8)  # peak at 2.777e-8
    t_max, _ = find_first_maximum(t, v)
    assert t_max == pytest.approx(2.777e-8, rel=1e-4)


def test_first_maximum_takes_first_peak():
    t = np.linspace(0.0, 2.0, 401)
    v = np.sin(2.0 * np.pi * t) * np.exp(t)  # second peak is higher
    t_max, _ = find_first_maximum(t, v)
    # first stationary point: tan(2 pi t) = -2 pi, i.e. t ~ 0.27511 -- not
    # the taller peak one period later
    first = (np.pi - np.arctan(2.0 * np.pi)) / (2.0 * np.pi)
    assert t_max == pytest.approx(first, abs=1e-3)


def test_first_maximum_symmetric_triple_is_exact():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 1.0, 0.0])
    assert find_first_maximum(t, v) == (1.0, 1.0)


def test_first_maximum_flat_top_returns_the_sample():
    # the parabola through samples one subnormal apart has no curvature left,
    # and its vertex would be 0/0
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 5e-324, 5e-324])
    assert find_first_maximum(t, v) == (1.0, 5e-324)


def test_first_maximum_boundary_and_errors():
    t = np.linspace(0.0, 1.0, 50)
    assert find_first_maximum(t, np.cos(t)) == (0.0, 1.0)
    with pytest.raises(ValueError, match="constant"):
        find_first_maximum(t, np.ones_like(t))
    with pytest.raises(ValueError, match="monotone"):
        find_first_maximum(t, t**2)
    with pytest.raises(ValueError):
        find_first_maximum(t[:2], t[:2])


@pytest.mark.parametrize("times, values, message", [
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 1.0], "sample times must be strictly increasing"),
    ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 1.0], "sample times must be strictly increasing"),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 0.0], "sample times must be finite"),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 0.0], "sample times must be finite"),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], "sampled values must be finite"),
    ([0.0, 1.0, 2.0], [0.0, 1.0, -np.inf], "sampled values must be finite"),
], ids=["unordered", "repeated", "nan-time", "inf-time", "nan-value", "inf-value"])
def test_first_maximum_refuses_a_series_it_cannot_read(times, values, message):
    # an unordered grid once returned (1.0, 2.0), a nan time (nan, nan), and a
    # nan value the error of a monotone series
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_first_maximum(np.array(times), np.array(values))


@pytest.mark.parametrize("k, v", [
    (np.arange(11.0), 3.0 - (np.arange(11.0) - 3.3) ** 2),
    (np.linspace(0.0, 3001.0, 3001), np.sin(np.linspace(0.0, 3.0, 3001))),
], ids=["parabola", "sine"])
def test_first_maximum_scales_exactly_with_a_power_of_two(k, v):
    # the parabola's determinant is the cube of the spacing, which once
    # underflowed to 0 on fine grids and made the trigger nan
    t_max, v_max = find_first_maximum(k, v)
    assert find_first_maximum(k * 2.0**-1010, v) == (t_max * 2.0**-1010, v_max)


def trigger(sc):
    """The switch-off trigger of sc under the derived generator, from its start."""
    rho0 = pure_density(named_state(sc.initial))
    return scenarios_mod._switch_trigger(sc, superoperator("derived", sc.params), rho0)


def test_switch_off_triggers_keep_their_bits():
    # the switch-off CSVs and perfbench's reference read these two triggers
    assert [trigger(preset(name)) for name in ("switch_off", "switch_off_gamma1e5")] == [
        2.7692027809402135e-08, 2.7760235169984184e-08]


# ---------------------------------------------------------------------------
# running presets

def switch_at(monkeypatch, t_off):
    """Place the automatic switch-off at t_off instead of the found maximum."""
    monkeypatch.setattr(scenarios_mod, "_switch_trigger", lambda scenario, lv, rho0: t_off)


def direct_states(sc, times):
    """The states run_scenario evaluates, from whole-stack integrate runs:
    the switch-off joins a driven run to t_off and a free run from its state."""
    rho0 = pure_density(named_state(sc.initial))
    if sc.field_off_time is None:
        return integrate("derived", rho0, sc.params, times)
    t_off = trigger(sc)
    head = times[times <= t_off]
    driven = integrate("derived", rho0, sc.params, np.append(head[head < t_off], t_off))
    free = replace(sc.params, Omega=0.0)
    tail = integrate("derived", driven[-1], free, times[times > t_off] - t_off)
    return np.concatenate([driven[: head.size], tail])


def test_run_matches_direct_integration():
    # every preset the integrator runs, each state evaluated on its own
    for sc in catalog():
        if not isinstance(sc, Scenario):
            continue
        times = np.linspace(0.0, sc.horizon, 201)
        table = run_scenario(replace(sc, samples=201))
        states = direct_states(sc, times)
        for name in sc.observables:
            fn = OBSERVABLES[name]
            direct = np.array([fn(rho) for rho in states])
            assert np.array_equal(table.data[:, table.names.index(name)], direct), (sc.name, name)
        assert np.array_equal(table.times, times)


@pytest.mark.parametrize(
    "t_off",
    [2.95001e-8, 3.0e-8, "auto", "two_blocks"],
    ids=["off_grid", "on_grid", "auto", "two_blocks"],
)
def test_switch_off_walk_matches_direct_integration(t_off, monkeypatch):
    # the driven segment spans blocks and ends inside one, on or off the grid;
    # at "two_blocks" exactly 2 * BLOCK samples lie at or before the switch, so
    # the driven walk over them ends exactly on a block boundary
    horizon, samples = 6e-8, 1601
    if t_off == "two_blocks":
        t_off = (2 * BLOCK - 0.5) * horizon / (samples - 1)
    if t_off != "auto":
        switch_at(monkeypatch, t_off)
    sc = Scenario(
        name="switch_blocks",
        initial="e1e2",
        params=DRIVE_S,
        horizon=horizon,
        observables=("rho44", "rho_ss", "C"),
        samples=samples,
        field_off_time="auto",
    )
    table = run_scenario(sc)
    states = direct_states(sc, table.times)
    t_off = trigger(sc)
    assert np.count_nonzero(table.times <= t_off) > BLOCK
    for name, column in zip(table.names, table.data.T):
        assert np.array_equal(column, OBSERVABLES[name](states)), name


@pytest.mark.parametrize("name", ["switch_off", "switch_off_gamma1e5"])
def test_switch_off_head_is_the_plain_driven_run(name):
    # up to the switch the run is the driven run of the same preset, bit for
    # bit, over a head that spans more than two blocks
    sc = replace(preset(name), horizon=6e-8, samples=1601)
    switched = run_scenario(sc)
    driven = run_scenario(replace(sc, field_off_time=None))
    head = switched.times <= trigger(sc)
    assert np.count_nonzero(head) > 2 * BLOCK
    assert np.array_equal(switched.times, driven.times)
    assert np.array_equal(switched.data[head], driven.data[head])


def test_switch_off_driven_observable_error_stops_before_the_free_walk(monkeypatch):
    # an observable error on the first driven block is raised at once: the
    # driven walk steps no further and the free walk never starts, so an error
    # the free walk would raise cannot take its place
    calls = []

    def fails_first(rho):
        calls.append(len(rho))
        if len(calls) == 1:
            raise ValueError("driven observable")
        return rho[..., 0, 0].real

    monkeypatch.setitem(OBSERVABLES, "fails_first", fails_first)
    switch_at(monkeypatch, 3.0e-8)
    sc = Scenario(
        name="switch_errors",
        initial="e1e2",
        params=DRIVE_S,
        horizon=6e-8,
        observables=("fails_first", "rho44"),
        samples=1601,
        field_off_time="auto",
    )
    walk = scenarios_mod.integrate_blocks
    free = superoperator("derived", replace(DRIVE_S, Omega=0.0))
    walks = []  # per walk started: its drive and the blocks it yielded

    def free_walk_fails(lv, rho0, times):
        is_free = np.array_equal(lv, free)
        walks.append([0.0 if is_free else DRIVE_S.Omega, 0])
        for block in walk(lv, rho0, times):
            walks[-1][1] += 1
            yield block
        if is_free:
            raise ValueError("free walk")

    monkeypatch.setattr(scenarios_mod, "integrate_blocks", free_walk_fails)
    with pytest.raises(ValueError, match="driven observable"):
        run_scenario(sc)
    assert calls[0] == BLOCK  # it failed on the first driven block
    assert walks == [[DRIVE_S.Omega, 1]]


def test_switch_off_run_builds_each_generator_once(monkeypatch):
    # the driven walk's, shared by the trigger probe, the grid walk and the
    # one-sample walk to t_off, then the free walk's
    build = scenarios_mod.superoperator
    built = []

    def counted(variant, params):
        built.append(params.Omega)
        return build(variant, params)

    monkeypatch.setattr(scenarios_mod, "superoperator", counted)
    sc = replace(preset("switch_off"), horizon=6e-8, samples=101)
    run_scenario(sc)
    assert built == [sc.params.Omega, 0.0]


def test_switch_off_run_asks_its_grid_for_a_block_at_a_time(monkeypatch):
    # the run's grid was once built whole, twice: to find the switch, and less
    # it for the free walk; the trigger probe's 3001-sample grid is its own
    get = UniformGrid.__getitem__
    asked = []

    def counted(grid, rows):
        times = get(grid, rows)
        if grid.size != 3001:
            asked.append(times.size)
        return times

    monkeypatch.setattr(UniformGrid, "__getitem__", counted)
    sc = replace(preset("switch_off"), horizon=6e-8, samples=1601)
    table = run_scenario(sc)
    assert max(asked) == BLOCK
    assert np.count_nonzero(table.times <= trigger(sc)) > BLOCK


@pytest.mark.parametrize("name", ["free_eg", "switch_off"])
def test_doomed_published_run_stops_after_its_first_failing_block(monkeypatch, name):
    # both runs leave [0, 1] in their first block (switch_off in its trigger
    # probe, whose trace guard would trip only in its fifth block); no block
    # past it is stepped
    walk = scenarios_mod.integrate_blocks
    yielded = []

    def counted(lv, rho0, times):
        for rows, states in walk(lv, rho0, times):
            yielded.append(rows)
            yield rows, states

    monkeypatch.setattr(scenarios_mod, "integrate_blocks", counted)
    with pytest.raises(ValueError, match="^population .* beyond tolerance$"):
        run_scenario(replace(preset(name), samples=4 * BLOCK), variant="published")
    assert yielded == [slice(0, BLOCK)]


def test_run_scenario_peak_memory_per_sample():
    # the table is 48 B per sample (6 columns) and the times 8 B; the states
    # are evaluated and dropped a block at a time, never held whole (a
    # whole (N, 4, 4) stack alone is 256 B per sample)
    sc = replace(preset("free_LR"), samples=50_001)
    tracemalloc.start()
    try:
        run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / sc.samples <= 128, peak / sc.samples


def test_run_scenario_per_block_working_set():
    # beyond the table it returns, a run holds one block of states and the
    # observables' temporaries: about 450 KiB traced at 256-state blocks, 790
    # at 512
    sc = preset("free_LL")
    tracemalloc.start()
    try:
        table = run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    transient = peak - table.times.nbytes - table.data.nbytes
    assert transient <= 600 * 1024, transient / 1024


def test_free_LL_closed_forms():
    sc = preset("free_LL")
    table = run_scenario(replace(sc, samples=301))
    t = table.times
    gamma = sc.params.gamma
    decay = 0.25 * np.exp(-2.0 * gamma * t)
    column = dict(zip(table.names, table.data.T))
    assert np.max(np.abs(column["re_rho23"] - decay)) < 1e-7
    assert np.max(np.abs(column["rho_ss"] - (0.25 + decay))) < 1e-7
    assert np.max(np.abs(column["rho_aa"] - (0.25 - decay))) < 1e-7
    total = sum(column[n] for n in ("rho_pp", "rho_qq", "rho_ss", "rho_aa"))
    assert np.max(np.abs(total - 1.0)) < 1e-8
    c = column["C"]
    assert c[0] == 0.0
    assert np.all(c >= 0.0)


def test_published_variant_identical_from_localized_start():
    # from L1L2 the (2,3) coherence stays real, and the two generator
    # variants produce the same trajectory
    sc = replace(preset("free_LL"), samples=301)
    a = run_scenario(sc, variant="derived")
    b = run_scenario(sc, variant="published")
    assert np.max(np.abs(a.data - b.data)) < 1e-12


@pytest.mark.parametrize("samples", [None, 301], ids=["own_grid", "301"])
@pytest.mark.parametrize("name", ["free_LL", "free_LR"])
def test_variants_agree_on_free_preset_grids(name, samples):
    # the free presets with a symmetric start, on their own grid and on the
    # floor test's.  The two generators act alike on every state these runs
    # reach, but exp(L dt) is built from all of L, so the tables agree only
    # to rounding: 6.6e-13 at 301 samples, 7.4e-14 at 5001
    sc = preset(name)
    if samples is not None:
        sc = replace(sc, samples=samples)
    a = run_scenario(sc, variant="derived")
    b = run_scenario(sc, variant="published")
    assert np.max(np.abs(a.data - b.data)) < 1e-12


def test_detuned_drive_reaches_symmetric_state():
    table = run_scenario(preset("driven_detuned_s"))
    column = dict(zip(table.names, table.data.T))
    t_max, v_max = find_first_maximum(table.times, column["rho_ss"])
    assert t_max == pytest.approx(np.pi / (2.0 * np.sqrt(2.0) * 4.0e7), rel=0.01)
    assert v_max > 0.9
    assert np.max(column["C"]) > 0.95
    # rho_ss decomposes into the (2,3) block populations and coherence
    recon = 0.5 * (column["rho22"] + column["rho33"]) + column["re_rho23"]
    assert np.max(np.abs(column["rho_ss"] - recon)) < 1e-9


def test_switch_off_freezes_corner_populations(monkeypatch):
    switch_at(monkeypatch, 3e-8)
    sc = Scenario(
        name="switch_test",
        initial="e1e2",
        params=DRIVE_S,
        horizon=6e-8,
        observables=("rho11", "rho44", "rho_ss", "rho_aa", "C"),
        samples=601,
        field_off_time="auto",
    )
    table = run_scenario(sc)
    after = table.times > 3e-8
    column = dict(zip(table.names, table.data.T))
    r44 = column["rho44"]
    # the drive pumps |4> down, then the free generator leaves it untouched
    assert np.ptp(r44[~after]) > 0.1
    assert np.ptp(r44[after]) < 1e-6
    assert np.ptp(column["rho11"][after]) < 1e-6
    # no glitch at the seam: the symmetric population is continuous
    seam = np.abs(np.diff(column["rho_ss"]))
    assert np.max(seam) < 0.05


def test_switch_off_auto_trigger():
    sc = Scenario(
        name="switch_auto",
        initial="e1e2",
        params=DRIVE_S,
        horizon=6e-8,
        observables=("rho_ss", "rho_aa", "C"),
        samples=601,
        field_off_time="auto",
    )
    table = run_scenario(sc)
    rho_ss, rho_aa, c = table.data.T
    # trigger fires at the first maximum (~27.8 ns), so the tail stays high
    assert np.max(rho_ss) > 0.9
    assert np.all(rho_ss[table.times > 3e-8] > 0.85)
    assert np.all(rho_aa[table.times > 3e-8] < 0.05)
    assert np.max(c) > 0.95


def test_switch_off_trigger_without_a_peak_in_a_full_swap_period():
    # heavy dephasing leaves rho_ss rising over the whole probe window; a
    # longer horizon would not widen it, so the message suggests none (the
    # window cut short by the horizon is checked from the command line)
    params = replace(DRIVE_S, gamma=1e9)
    sc = Scenario(name="switch_damped", initial="e1e2", params=params, horizon=3e-6,
                  observables=("rho_ss",), samples=11, field_off_time="auto")
    window = 1.2 * np.pi / (np.sqrt(2.0) * params.Omega)
    with pytest.raises(ValueError) as info:
        run_scenario(sc)
    assert str(info.value) == (
        f"switch-off trigger found no rho_ss maximum in the probe window [0, {window:.3e}] s "
        "(series is monotone; no local maximum)"
    )


def test_switch_off_with_off_grid_time(monkeypatch):
    switch_at(monkeypatch, 2.95001e-8)
    sc = Scenario(
        name="switch_offgrid",
        initial="e1e2",
        params=DRIVE_S,
        horizon=6e-8,
        observables=("rho44",),
        samples=301,
        field_off_time="auto",
    )
    table = run_scenario(sc)
    assert table.times.shape == (301,)
    assert np.all(np.isfinite(table.data))


def test_zeno_sweep_table():
    table = run_scenario(preset("zeno_sweep"))
    assert np.allclose(table.times, 1e-10 * np.arange(11))
    assert table.names == (
        "survival_tau0.1ns", "exact_tau0.1ns", "gauss_tau0.1ns",
        "survival_tau0.01ns", "exact_tau0.01ns", "gauss_tau0.01ns",
        "survival_tau0.005ns", "exact_tau0.005ns", "gauss_tau0.005ns",
    )
    assert table.data.shape == (11, 9)
    column = dict(zip(table.names, table.data.T))
    for tau, label in ((1e-10, "0.1ns"), (1e-11, "0.01ns"), (5e-12, "0.005ns")):
        stride = round(1e-10 / tau)
        exact = np.array([analytic_survival(4.0e9, tau, r * stride)[0] for r in range(11)])
        gauss = np.array([analytic_survival(4.0e9, tau, r * stride)[1] for r in range(11)])
        assert np.allclose(column[f"exact_tau{label}"], exact, atol=1e-12)
        assert np.allclose(column[f"gauss_tau{label}"], gauss, atol=1e-12)
        sim = column[f"survival_tau{label}"]
        assert sim[0] == 1.0
        # dephasing at gamma = 1e6 costs a little survival on top of the swap
        assert np.all(sim[1:] < exact[1:])
        assert np.max(exact[1:] - sim[1:]) < 1e-3


@pytest.mark.parametrize("horizon", [1e-9, 1e-8, 3e-8])
def test_zeno_sweep_survival_is_run_zenos_curve_bit_for_bit(horizon):
    # each column takes p**(stride * r) for its rows alone, not run_zeno's whole
    # curve sliced to every stride-th entry; the bits are the curve's.  At 3e-8 s
    # the 301 rows span two blocks, and the closed forms too are those of
    # analytic_survival, row by row, on both sides of the boundary
    sweep = replace(preset("zeno_sweep"), horizon=horizon)
    table = run_scenario(sweep)
    for tau, stride, n in sweep._schedule():
        column = table.data[:, table.names.index(f"survival_tau{tau * 1e9:g}ns")]
        curve = run_zeno(tau, n, sweep.J, sweep.gamma)[::stride]
        assert column.tobytes() == curve.tobytes(), tau
        rows = np.array([analytic_survival(sweep.J, tau, r * stride)
                         for r in range(table.times.size)])
        for kind, closed in zip(("exact", "gauss"), rows.T):
            column = table.data[:, table.names.index(f"{kind}_tau{tau * 1e9:g}ns")]
            assert column.tobytes() == closed.tobytes(), (kind, tau)


def test_zeno_sweep_runs_only_the_derived_generator():
    with pytest.raises(ValueError, match="^a Zeno sweep runs the derived generator, "
                                         "not 'published'$"):
        run_scenario(preset("zeno_sweep"), variant="published")


def test_unknown_initial_raises_at_construction():
    # it once raised only inside the walk, so a sweep blamed its first point
    with pytest.raises(ValueError) as named:
        named_state("nope")
    assert str(named.value).startswith("unknown state name 'nope'; valid names: ")
    with pytest.raises(ValueError, match=f"^{re.escape(str(named.value))}$"):
        Scenario(name="x", initial="nope", params=FREE, horizon=1e-9, observables=("rho11",))

