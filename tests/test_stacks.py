"""Observables over a stack of states give each state's single-state result.

Bit for bit: the stacked forms run the same BLAS and LAPACK calls one 4x4
matrix at a time, so batching may not move a single digit of the CSVs.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate, published_superoperator_table, random_density, random_pure
from qdimer import scenarios as scenarios_mod
from qdimer import states as states_mod
from qdimer.audit import consistency_report
from qdimer.concurrence import ConcurrenceError, concurrence_stack
from qdimer.integrate import integrate_blocks
from qdimer.liouville import SystemParams, superoperator
from qdimer.scenarios import OBSERVABLES, Scenario, catalog, run_scenario
from qdimer.states import (
    BLOCK,
    NAMED_STATES,
    blocks,
    named_state,
    population,
    pure_density,
)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def draw_state(rng, kind):
    if kind == "pure":
        psi = random_pure(rng)
        return np.outer(psi, psi.conj())
    if kind == "rank2":
        a, b = random_pure(rng), random_pure(rng)
        w = rng.uniform()
        return w * np.outer(a, a.conj()) + (1.0 - w) * np.outer(b, b.conj())
    if kind == "clamped":
        # a diagonal state a hair outside the physical set: its eigenvalue
        # -1e-12 is clipped for C and its bare populations need clamping
        w = rng.uniform()
        return np.diag(rng.permutation([w, 1.0 - w, 1e-12, -1e-12])).astype(complex)
    return random_density(rng)


@st.composite
def density_stacks(draw):
    """1-40 states mixing pure, rank-2, clamped and full-rank ones."""
    kinds = draw(st.lists(st.sampled_from(("pure", "rank2", "clamped", "full")),
                          min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([draw_state(rng, kind) for kind in kinds])


def clamped_population(rho, psi):
    # the single-state formula before stacks: vdot, then the [0, 1] clamp
    value = float(np.real(np.vdot(psi, rho @ psi)))
    return min(max(value, 0.0), 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(density_stacks())
def test_concurrence_stack_matches_single_states(rhos):
    stack = concurrence_stack(rhos)
    assert stack.valid.all()
    for n, rho in enumerate(rhos):
        single = concurrence_stack(rho)
        assert bits(stack.values[n]) == bits(OBSERVABLES["C"](rho))
        assert bool(stack.clamped[n]) == bool(single.clamped)
    assert bits(OBSERVABLES["C"](rhos)) == bits(stack.values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(density_stacks())
def test_population_stack_matches_single_states(rhos):
    for name, amps in NAMED_STATES.items():
        psi = np.array(amps, dtype=complex)
        stacked = population(rhos, psi)
        assert stacked.shape == (len(rhos),)
        single = [population(rho, psi) for rho in rhos]
        assert bits(stacked) == bits(single), name
        assert bits(stacked) == bits([clamped_population(rho, psi) for rho in rhos]), name


def test_clamped_states_are_drawn_clamped():
    rho = draw_state(np.random.default_rng(3), "clamped")
    assert concurrence_stack(rho).clamped
    bare = [population(rho, named_state(n)) for n in ("g1g2", "g1e2", "e1g2", "e1e2")]
    assert 0.0 in bare


@pytest.fixture(scope="module")
def preset_states():
    """The states run_scenario evaluates, and its table, for every Scenario preset."""
    captured = {}
    walk = scenarios_mod._walk
    with pytest.MonkeyPatch.context() as mp:
        for sc in catalog():
            if not isinstance(sc, Scenario):
                continue
            seen = []

            def record(scenario, variant, grid, sc=sc, seen=seen):
                for rows, states in walk(scenario, variant, grid):
                    # the switch-off trigger probe evaluates rho_ss alone
                    if scenario.observables == sc.observables:
                        seen.append(states)
                    yield rows, states

            mp.setattr(scenarios_mod, "_walk", record)
            table = run_scenario(sc)
            captured[sc.name] = np.concatenate(seen), table
            assert len(captured[sc.name][0]) == sc.samples
    return captured


def test_preset_states_span_blocks(preset_states):
    assert len(preset_states) == 8
    assert all(len(states) > BLOCK for states, _ in preset_states.values())


@pytest.mark.parametrize("name", sorted(OBSERVABLES))
def test_observables_stack_matches_single_states_on_presets(preset_states, name):
    fn = OBSERVABLES[name]
    for preset, (states, table) in preset_states.items():
        single = [fn(rho) for rho in states]
        assert bits(fn(states)) == bits(single), preset
        # and block by block, as run_scenario evaluates it, and in its table
        by_block = np.concatenate([fn(states[rows]) for rows in blocks(len(states))])
        assert bits(by_block) == bits(single), preset
        if name in table.names:
            assert bits(table.data[:, table.names.index(name)]) == bits(single), preset


NEGATIVE = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
SKEW = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
SKEW[0, 1], SKEW[1, 0] = 0.3, -0.3


def good_stack(n):
    rng = np.random.default_rng(11)
    return np.stack([random_density(rng) for _ in range(n)])


def raised(fn, arg):
    with pytest.raises(Exception) as info:
        fn(arg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", [NEGATIVE, SKEW], ids=["negative", "complex"])
@pytest.mark.parametrize("k", [0, 4, 9])
def test_unphysical_state_k_raises_its_single_state_error(bad, k):
    rhos = good_stack(10)
    rhos[k] = bad
    expected = raised(OBSERVABLES["C"], bad)
    assert expected[0] is ConcurrenceError
    stack = concurrence_stack(rhos)
    assert np.flatnonzero(~stack.valid).tolist() == [k]
    assert np.isnan(stack.values[k])
    assert raised(lambda _: stack.check(), None) == expected
    assert raised(OBSERVABLES["C"], rhos) == expected


def test_first_unphysical_state_decides_the_error():
    rhos = good_stack(10)
    rhos[3], rhos[7] = SKEW, NEGATIVE
    assert raised(OBSERVABLES["C"], rhos) == raised(OBSERVABLES["C"], SKEW)
    rhos[3], rhos[7] = NEGATIVE, SKEW
    assert raised(OBSERVABLES["C"], rhos) == raised(OBSERVABLES["C"], NEGATIVE)


def excess(name, i=1):
    # the existing single-state test's broken state: a pure state plus 1e-3
    rho = pure_density(named_state(name))
    rho[i, i] += 1e-3
    return rho


@pytest.mark.parametrize("k", [0, 5, 9])
def test_unphysical_population_k_raises_its_single_state_error(k):
    rhos = good_stack(10)
    for name, bad, message in [
        ("rho_ss", excess("s"), "above 1"),
        ("rho_ff", excess("f"), "above 1"),
        ("rho_ss", -excess("s"), "below 0"),
        ("rho11", -excess("g1g2", 0), "below 0"),
        ("rho22", excess("g1e2"), "above 1"),
        ("rho33", excess("e1g2", 2), "above 1"),
        ("rho44", excess("e1e2", 3), "above 1"),
    ]:
        rhos[k] = bad
        expected = raised(OBSERVABLES[name], bad)
        assert expected[0] is ValueError and message in expected[1]
        assert raised(OBSERVABLES[name], rhos) == expected


def per_sample_audit(params, rho0, horizon, samples):
    # the per-sample loops of consistency_report before it took stacks
    times = np.linspace(0.0, horizon, samples)
    derived = integrate("derived", rho0, params, times)
    published = integrate("published", rho0, params, times)
    pops_d = np.array([np.diag(rho).real for rho in derived])
    pops_p = np.array([np.diag(rho).real for rho in published])
    max_conc, skipped = 0.0, 0
    for rho_d, rho_p in zip(derived, published):
        c_d = OBSERVABLES["C"](rho_d)
        try:
            c_p = OBSERVABLES["C"](rho_p)
        except ConcurrenceError:
            skipped += 1
            continue
        max_conc = max(max_conc, abs(c_d - c_p))
    # the trace error of the published rows without their closure row
    leak = 2.0 * np.abs(pops_p[:, 2] - pops_p[0, 2])
    diff_p = pops_p[:, 2] - pops_p[:, 1]
    diff_d = pops_d[:, 2] - pops_d[:, 1]
    return {
        "max_population_deviation": float(np.max(np.abs(pops_d - pops_p))),
        "max_rho_deviation": float(np.max(np.abs(derived - published))),
        # with a skipped sample the largest deviation is unknown
        "max_concurrence_deviation": math.nan if skipped else max_conc,
        "concurrence_skipped": skipped,
        "published_trace_drift_no_closure": float(np.max(leak)),
        "published_pop23_diff_drift": float(np.max(np.abs(diff_p - diff_p[0]))),
        "derived_pop23_diff_range": float(np.max(diff_d) - np.min(diff_d)),
    }


@pytest.mark.parametrize("bad", [2.5, 501.0, np.nan, True])
def test_audit_samples_must_be_integer(bad):
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    rho0 = pure_density(named_state("L1L2"))
    with pytest.raises(ValueError, match="samples must be an integer"):
        consistency_report(params.J, params.gamma, rho0, 5e-9, samples=bad)


@pytest.mark.parametrize("horizon, samples, message", [
    (0.0, 501, "horizon must be > 0"), (-1e-9, 501, "horizon must be > 0"),
    (math.nan, 501, "horizon must be > 0"), (math.inf, 501, "horizon must be > 0"),
    (5e-9, 1, "at least 2 samples"), (5e-9, 0, "at least 2 samples"),
    (True, 501, "horizon must be > 0"),
])
def test_audit_rejects_bad_horizon_and_sample_count(horizon, samples, message):
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    rho0 = pure_density(named_state("L1L2"))
    with pytest.raises(ValueError, match=message):
        consistency_report(params.J, params.gamma, rho0, horizon, samples=samples)


@pytest.mark.parametrize("horizon, samples, message", [
    (10**400, 501, "horizon must be > 0, got 1.000e+400"),
    (-10**400, 501, "horizon must be > 0, got -1.000e+400"),
    (5e-9, 10**400, "1.000e+400 samples are above the cap of 10000000"),
    (5e-9, -10**400, "need at least 2 samples, got -1.000e+400"),
], ids=["horizon-plus", "horizon-minus", "samples-plus", "samples-minus"])
def test_audit_refuses_an_int_past_the_float_range(horizon, samples, message):
    # math.isfinite(10**400) once raised OverflowError from the horizon check
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    rho0 = pure_density(named_state("L1L2"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        consistency_report(params.J, params.gamma, rho0, horizon, samples=samples)


@pytest.mark.parametrize("bad, message", [
    (-1.0, "must be >= 0, got -1.0"),
    (np.nan, "must be a finite number, got nan"),
    (np.inf, "must be a finite number, got inf"),
    (-np.inf, "must be a finite number, got -inf"),
    (True, "must be a finite number, got True"),
    ("a", "must be a finite number, got 'a'"),
    (10**400, "must be a finite number, got 1.000e+400"),
], ids=["negative", "nan", "inf", "minus-inf", "bool", "str", "int-past-float-range"])
@pytest.mark.parametrize("field", ["J", "gamma"])
def test_audit_refuses_a_bad_rate_by_its_name(field, bad, message):
    rates = {"J": 4.0e9, "gamma": 1.0e6, field: bad}
    rho0 = pure_density(named_state("L1L2"))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} {message}')}$") as audit:
        consistency_report(rates["J"], rates["gamma"], rho0, 5e-9)
    # the text SystemParams gives the same rates
    with pytest.raises(ValueError) as built:
        SystemParams(omega0=0.0, **rates)
    assert str(audit.value) == str(built.value)


def test_audit_checks_the_rates_before_the_grid():
    # J before gamma, and both before the horizon and the sample count
    rho0 = pure_density(named_state("L1L2"))
    with pytest.raises(ValueError, match=r"^J must be >= 0, got -1.0$"):
        consistency_report(-1.0, 1e6, rho0, 0.0)
    with pytest.raises(ValueError, match=r"^J must be >= 0, got -1.0$"):
        consistency_report(-1.0, -1.0, rho0, 5e-9, samples=1)
    with pytest.raises(ValueError, match=r"^gamma must be >= 0, got -1.0$"):
        consistency_report(4e9, -1.0, rho0, -1e-9, samples=0)


AUDIT_CASES = [
    ("e1g2", 501), ("g1e2", 501), ("f", 501), ("k", 501), ("L1L2", 501),
    # one sample past three blocks, and one past six (1537 = 6 * 256 + 1)
    *(("g1e2", n) for n in sorted({3 * BLOCK + 1, 1537})),
]


@pytest.mark.parametrize("initial, samples, block", [
    *(pytest.param(initial, n, BLOCK, id=f"{initial}-{n}") for initial, n in AUDIT_CASES),
    # seven-state blocks put a block edge inside every reduction
    *(pytest.param(initial, n, 7, id=f"{initial}-{n}-block7") for initial, n in AUDIT_CASES),
])
def test_audit_matches_per_sample_loops(monkeypatch, initial, samples, block):
    # the audit command's defaults, at a 5 ns horizon; the audit runs without
    # omega0, and so does the reference
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    rho0 = pure_density(named_state(initial))
    expected = per_sample_audit(replace(params, omega0=0.0), rho0, 5e-9, samples)
    monkeypatch.setattr(states_mod, "BLOCK", block)
    report = consistency_report(params.J, params.gamma, rho0, 5e-9, samples=samples)
    got = {field: getattr(report, field) for field in expected}
    assert bits(list(got.values())) == bits(list(expected.values())), got
    if initial == "g1e2":
        # the published run leaves the physical set at once: every state after
        # t = 0 has an eigenvalue below -NEG_TOL (down to -418 by 5 ns)
        assert report.concurrence_skipped == samples - 1
        times = np.linspace(0.0, 5e-9, samples)
        published = concurrence_stack(integrate("published", rho0, params, times))
        assert published.valid.tolist() == [True] + [False] * (samples - 1)
        assert np.min(published.low) < -400.0


def test_audit_agrees_to_rounding_where_the_variants_agree():
    # the audit once ran omega0 = 1.5e11 s^-1, whose phase rounding reached
    # 7.4e-12 in rho, 7.5e-12 in the raw trace and 3.1e-14 in the frozen gap
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    worst = {}
    for start in ("g1g2", "e1e2", "s", "a", "p", "q", "L1L2", "R1R2", "L1R2", "R1L2"):
        rho0 = pure_density(named_state(start))
        report = consistency_report(params.J, params.gamma, rho0, 5e-9)
        worst[start] = (report.max_rho_deviation, report.published_trace_drift_no_closure,
                        report.published_pop23_diff_drift)
    assert all(rho <= 1e-14 and trace <= 1e-15 and gap <= 1e-15
               for rho, trace, gap in worst.values()), worst


@pytest.mark.parametrize("horizon, samples", [(5e-9, 501), (1e-9, 41)], ids=["5ns", "1ns"])
@pytest.mark.parametrize("J, gamma", [(4.0e9, 1.0e6), (4.0e9, 0.0), (4.0e9, 8.0e9), (0.0, 1.0e6)],
                         ids=["audit", "gamma0", "exceptional", "J0"])
def test_audit_reads_the_unclosed_trace_leak_from_rho33(J, gamma, horizon, samples):
    # the published rows without their closure row, propagated from rho0 by
    # scipy's expm at each sample: the audit's 2 |rho33 - rho33(0)| must be
    # the worst trace error of that run, from every named start
    params = SystemParams(omega0=0.0, J=J, gamma=gamma)
    raw = published_superoperator_table(params, closure=False)
    times = np.linspace(0.0, horizon, samples)
    # trace_rows[i] maps vec(rho0) to the trace at times[i]
    trace_rows = np.stack([scipy.linalg.expm(raw * t)[[0, 5, 10, 15]].sum(axis=0)
                           for t in times])
    for start in sorted(NAMED_STATES):
        rho0 = pure_density(named_state(start))
        reference = float(np.max(np.abs((trace_rows @ rho0.reshape(16)).real - 1.0)))
        report = consistency_report(params.J, params.gamma, rho0, horizon, samples=samples)
        error = abs(report.published_trace_drift_no_closure - reference)
        assert error <= 1e-10 * max(1.0, reference), (start, reference, error)


def test_audit_trace_leak_is_twice_the_squared_exchange_phase():
    # README's law: from e1g2 without dephasing rho33 = 1 + (J t)^2, so the
    # unclosed rows leak 2 (J t)^2 of trace by t
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=0.0)
    rho0 = pure_density(named_state("e1g2"))
    for horizon in np.linspace(5e-11, 5e-10, 10):
        report = consistency_report(params.J, params.gamma, rho0, float(horizon), samples=2)
        law = 2.0 * (params.J * horizon) ** 2
        assert report.published_trace_drift_no_closure == pytest.approx(law, rel=1e-12), horizon


def test_audit_trace_guard_error_comes_before_a_concurrence_error():
    # the derived run's first state cannot be scored, and the published run's
    # trace leaves 1e-6 between 0.64 and 0.77 us.  The walks check each block
    # before the audit scores it, so the guard's error comes first when it
    # trips in the first block (201 samples are one block), and the
    # concurrence error when it trips in a later one.  The audit runs without
    # omega0, and so does the reference
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    free = replace(params, omega0=0.0)
    rho0 = pure_density(named_state("g1e2"))
    rho0[0, 1] = 0.3
    with pytest.raises(ConcurrenceError) as scored:
        OBSERVABLES["C"](rho0)
    for samples, blocks_before_the_guard in [(201, 0), (2001, 5)]:
        yielded = 0
        with pytest.raises(ValueError, match="^trace drifted by") as guard:
            for _ in integrate_blocks(superoperator("published", free), rho0,
                                      np.linspace(0.0, 1e-6, samples)):
                yielded += 1
        assert yielded == blocks_before_the_guard
        with pytest.raises(ValueError) as audit:
            consistency_report(params.J, params.gamma, rho0, 1e-6, samples=samples)
        first = scored if blocks_before_the_guard else guard
        assert type(audit.value) is type(first.value)
        assert str(audit.value) == str(first.value)


def test_audit_memory_does_not_grow_with_the_sample_count():
    # the report holds no trajectory: ten times the samples, about the same peak
    params = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    rho0 = pure_density(named_state("f"))
    peaks = []
    for samples in (2_001, 20_001):
        tracemalloc.start()
        try:
            consistency_report(params.J, params.gamma, rho0, 5e-9, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
