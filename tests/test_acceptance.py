"""Acceptance gate: one test per contracted deliverable, one printed line each.

Every check runs at its contracted tolerance.  Where the library's own
closed forms say a contracted number is not reachable, the check is left
as-is and fails honestly; the analysis lives in the decisions ledger
(kept outside the package tree).
"""

import time
from dataclasses import replace

import numpy as np

from oracles import concurrence_reference, integrate, random_density
from qdimer.audit import consistency_report
from qdimer.cli import emit_csv
from qdimer.integrate import closed_form_free
from qdimer.liouville import SystemParams
from qdimer.physics import DEBYE, dipole_coupling, einstein_a
from qdimer.scenarios import (
    OBSERVABLES,
    find_first_maximum,
    catalog,
    run_scenario,
)
from qdimer.states import named_state, population, pure_density
from qdimer.zeno import analytic_survival, run_zeno

OMEGA0 = 1.5e11
J_REF = 4.0e9


def report(number, label, clauses):
    failed = [text for text, ok in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"acceptance {number:02d} ({label}): {status}"
    if failed:
        line += " -- failed: " + " | ".join(failed)
    print(line, flush=True)
    assert not failed, line


def preset(name):
    return next(s for s in catalog() if s.name == name)


def free_run(initial, gamma, horizon, samples):
    params = SystemParams(omega0=OMEGA0, J=J_REF, gamma=gamma)
    times = np.linspace(0.0, horizon, samples)
    states = integrate("derived", pure_density(named_state(initial)), params, times)
    return times, states


def column(states, name):
    fn = OBSERVABLES[name]
    return np.array([fn(rho) for rho in states])


def refined_peaks(times, values):
    peaks = []
    for i in range(1, values.size - 1):
        if values[i] > values[i - 1] and values[i] >= values[i + 1]:
            peaks.append(find_first_maximum(times[i - 1 : i + 2], values[i - 1 : i + 2]))
    return peaks


def test_criterion_01_free_swap_populations():
    start = time.perf_counter()
    t, states = free_run("e1g2", 0.0, 5e-9, 501)
    err22 = np.max(np.abs(column(states, "rho22") - np.sin(J_REF * t) ** 2))
    err33 = np.max(np.abs(column(states, "rho33") - np.cos(J_REF * t) ** 2))
    elapsed = time.perf_counter() - start
    report(1, "free swap populations", [
        (f"rho22 vs sin^2(Jt): {err22:.2e} <= 1e-7", err22 <= 1e-7),
        (f"rho33 vs cos^2(Jt): {err33:.2e} <= 1e-7", err33 <= 1e-7),
        (f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0),
    ])


def test_criterion_02_circular_state_and_zeno():
    start = time.perf_counter()
    t, states = free_run("f", 0.0, 5e-9, 501)
    ff = np.array([population(rho, named_state("f")) for rho in states])
    err_ff = np.max(np.abs(ff - np.cos(J_REF * t) ** 2))

    survival = run_zeno(1e-11, 100, J_REF, 0.0)
    p1 = np.cos(J_REF * 1e-11) ** 2
    err_zeno = max(
        abs(survival[k] - p1**k) for k in range(survival.size)
    )

    gauss_gap = 0.0
    for tau in (5e-12, 2e-12):  # J*tau <= 0.02
        n = round(1e-9 / tau)
        exact, gauss = analytic_survival(J_REF, tau, n)
        gauss_gap = max(gauss_gap, abs(gauss - exact) / exact)

    finals = [
        run_zeno(tau, n, J_REF, 0.0)[-1]
        for tau, n in ((1e-10, 10), (1e-11, 100), (5e-12, 200))
    ]
    elapsed = time.perf_counter() - start
    report(2, "circular population and projection survival", [
        (f"rho_ff vs cos^2(Jt): {err_ff:.2e} <= 1e-8", err_ff <= 1e-8),
        (f"survival vs [cos^2(J tau)]^N: {err_zeno:.2e} <= 1e-9", err_zeno <= 1e-9),
        (f"gaussian gap at J tau <= 0.02: {gauss_gap:.2e} < 1e-2", gauss_gap < 1e-2),
        ("shorter interval preserves more at fixed T",
         finals[0] < finals[1] < finals[2]),
        (f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0),
    ])


def test_criterion_03_dephasing_magnitude():
    start = time.perf_counter()
    t, states = free_run("e1g2", 1e7, 2.05e-8, 4101)
    c = column(states, "C")
    peaks = refined_peaks(t, c)
    t_pk, v_pk = min(peaks, key=lambda pk: abs(pk[0] - 2e-8))
    elapsed = time.perf_counter() - start
    report(3, "concurrence envelope under dephasing", [
        (f"peak at t = {t_pk * 1e9:.2f} ns is {v_pk:.4f}, want 0.90 +/- 0.02",
         0.88 <= v_pk <= 0.92),
        (f"runtime {elapsed:.2f} s < 5 s", elapsed < 5.0),
    ])


def test_criterion_04_localized_product_cases():
    start = time.perf_counter()
    # same-side product, slow dephasing
    t, states = free_run("L1L2", 1e6, 5e-9, 501)
    dev_ss = np.max(np.abs(column(states, "rho_ss") - 0.5))
    dev_aa = np.max(np.abs(column(states, "rho_aa")))
    # same-side product, no dephasing: concurrence is the swap envelope
    t0, states0 = free_run("L1L2", 0.0, 5e-9, 1001)
    dev_c = np.max(np.abs(column(states0, "C") - np.abs(np.sin(J_REF * t0))))
    # opposite-side product swaps the roles of s and a
    t1, states1 = free_run("L1R2", 1e6, 5e-9, 501)
    dev_aa_lr = np.max(np.abs(column(states1, "rho_aa") - 0.5))
    dev_ss_lr = np.max(np.abs(column(states1, "rho_ss")))
    # conformation populations swing at 2*omega0
    t2, states2 = free_run("L1R2", 1e6, 5e-9, 24001)
    pp = column(states2, "rho_pp")
    qq = column(states2, "rho_qq")
    spacing = np.diff([pk[0] for pk in refined_peaks(t2, pp)])
    period_err = np.max(np.abs(spacing - np.pi / OMEGA0)) / (np.pi / OMEGA0)
    swings = (np.min(pp) <= 2e-3 and np.max(pp) >= 0.498
              and np.min(qq) <= 2e-3 and np.max(qq) >= 0.498)
    elapsed = time.perf_counter() - start
    report(4, "localized-conformation cases", [
        (f"L1L2 rho_ss-1/2 drift {dev_ss:.2e} <= 2e-3", dev_ss <= 2e-3),
        (f"L1L2 rho_aa drift {dev_aa:.2e} <= 2e-3", dev_aa <= 2e-3),
        (f"gamma=0 concurrence vs |sin(Jt)|: {dev_c:.2e} <= 1e-3", dev_c <= 1e-3),
        (f"L1R2 rho_aa-1/2 drift {dev_aa_lr:.2e} <= 2e-3", dev_aa_lr <= 2e-3),
        (f"L1R2 rho_ss drift {dev_ss_lr:.2e} <= 2e-3", dev_ss_lr <= 2e-3),
        ("rho_pp/rho_qq swing between 0 and 1/2", swings),
        (f"peak spacing vs pi/omega0: {period_err:.2e} < 5e-3", period_err < 5e-3),
        (f"runtime {elapsed:.2f} s < 30 s", elapsed < 30.0),
    ])


def driven_resonant_run(initial, j, horizon, samples):
    params = SystemParams(
        omega0=OMEGA0, J=j, gamma=1.0e6, Omega=7.0e7, delta_l=0.0, driven=True
    )
    times = np.linspace(0.0, horizon, samples)
    states = integrate("derived", pure_density(named_state(initial)), params, times)
    return times, states


def slow_peaks(times, values, width, min_separation):
    """Peaks of the two-photon cycle: boxcar out the fast off-resonant
    ripple, then cluster refined maxima closer than min_separation."""
    smooth = np.convolve(values, np.ones(width) / width, mode="same")
    out = []
    for t_pk, v_pk in refined_peaks(times, smooth):
        if not out or t_pk - out[-1][0] >= min_separation:
            out.append((t_pk, v_pk))
        elif v_pk > out[-1][1]:
            out[-1] = (t_pk, v_pk)
    return out


def test_criterion_05_resonant_slowdown():
    start = time.perf_counter()
    # (a) revival period from the first half-crossing of rho44
    t, states = driven_resonant_run("e1e2", J_REF, 1e-6, 2001)
    r44 = column(states, "rho44")
    i = int(np.argmax(r44 < 0.5))
    t_quarter = np.interp(0.5, [r44[i], r44[i - 1]], [t[i], t[i - 1]])
    period = 4.0 * t_quarter
    floor = 2.0 * np.pi / 7.0e7

    # (b) the entanglement cycle slows down as J grows
    periods = []
    for j in (1e9, 2e9, 4e9):
        tj, sj = driven_resonant_run("e1e2", j, 1.2e-6, 2401)
        peaks = slow_peaks(tj, column(sj, "C"), width=41, min_separation=5e-8)
        assert len(peaks) >= 2, f"expected two slow peaks at J = {j:g}"
        periods.append(peaks[1][0] - peaks[0][0])

    # (c) the empty and doubly excited starts are mirror runs
    t1, s1 = driven_resonant_run("e1e2", J_REF, 5e-7, 501)
    t2, s2 = driven_resonant_run("g1g2", J_REF, 5e-7, 501)
    mirror = max(
        np.max(np.abs(column(s1, "C") - column(s2, "C"))),
        np.max(np.abs(column(s1, "rho44") - column(s2, "rho11"))),
        np.max(np.abs(column(s1, "rho11") - column(s2, "rho44"))),
    )
    elapsed = time.perf_counter() - start
    report(5, "resonant-drive slowdown", [
        (f"rho44 revival period {period:.2e} s > 2 pi / Omega = {floor:.2e} s",
         period > floor),
        (f"concurrence periods {[f'{p:.3e}' for p in periods]} strictly "
         "increasing in J", periods[0] < periods[1] < periods[2]),
        (f"|1>-initial vs |4>-initial agreement {mirror:.2e} <= 1e-9",
         mirror <= 1e-9),
        (f"runtime {elapsed:.2f} s < 30 s", elapsed < 30.0),
    ])


def fit_decay_rate(times, values):
    slope, _ = np.polyfit(times, np.log(values), 1)
    return -slope


def test_criterion_06_detuned_resonance_and_switch_off():
    start = time.perf_counter()
    table = run_scenario(preset("driven_detuned_s"))
    detuned = dict(zip(table.names, table.data.T))
    t_max, _ = find_first_maximum(table.times, detuned["rho_ss"])
    c_at_max = float(np.interp(t_max, table.times, detuned["C"]))

    identity_dev = 0.0
    rate_errors = {}
    for name, gamma in (("switch_off", 1e6), ("switch_off_gamma1e5", 1e5)):
        sw = run_scenario(preset(name))
        off = dict(zip(sw.names, sw.data.T))
        recon = 0.5 * (off["rho22"] + off["rho33"]) + off["re_rho23"]
        identity_dev = max(
            identity_dev, np.max(np.abs(off["rho_ss"] - recon))
        )
        t_off, _ = find_first_maximum(sw.times, off["rho_ss"])
        tail = sw.times > t_off + 2e-8
        rate = fit_decay_rate(sw.times[tail], off["re_rho23"][tail])
        rate_errors[name] = abs(rate - 2.0 * gamma) / (2.0 * gamma)
    recon_d = 0.5 * (detuned["rho22"] + detuned["rho33"]) + detuned["re_rho23"]
    identity_dev = max(identity_dev, np.max(np.abs(detuned["rho_ss"] - recon_d)))
    elapsed = time.perf_counter() - start
    report(6, "detuned resonance and switch-off", [
        (f"first rho_ss maximum at {t_max * 1e6:.4f} us, want 0.028 +/- 10%",
         abs(t_max - 0.028e-6) <= 0.1 * 0.028e-6),
        (f"concurrence at that instant {c_at_max:.4f} >= 0.95", c_at_max >= 0.95),
        (f"post-switch decay-rate misfit vs 2 gamma: "
         f"{rate_errors['switch_off']:.2e} <= 0.1 (gamma=1e6)",
         rate_errors["switch_off"] <= 0.1),
        (f"post-switch decay-rate misfit vs 2 gamma: "
         f"{rate_errors['switch_off_gamma1e5']:.2e} <= 0.1 (gamma=1e5)",
         rate_errors["switch_off_gamma1e5"] <= 0.1),
        (f"Re rho23 identity deviation {identity_dev:.2e} <= 1e-6",
         identity_dev <= 1e-6),
        (f"runtime {elapsed:.2f} s < 60 s", elapsed < 60.0),
    ])


def test_criterion_07_forbidden_transition():
    start = time.perf_counter()
    table = run_scenario(preset("driven_detuned_a"))
    c_max = float(np.max(table.data[:, table.names.index("C")]))
    elapsed = time.perf_counter() - start
    report(7, "forbidden antisymmetric transition", [
        (f"max concurrence over 0.2 us is {c_max:.4f} < 0.05", c_max < 0.05),
        (f"runtime {elapsed:.2f} s < 10 s", elapsed < 10.0),
    ])


def test_criterion_08_derived_constants():
    j = dipole_coupling(1.46 * DEBYE, 10e-9)
    a_low = einstein_a(1.46 * DEBYE, 1.5e11)
    a_high = einstein_a(1.46 * DEBYE, 6.78e12)
    ratio_low = max(a_low / 1e-7, 1e-7 / a_low)
    ratio_high = max(a_high / 1e-2, 1e-2 / a_high)
    report(8, "derived molecular constants", [
        (f"J = {j:.4e} s^-1 within 5% of 4.0e9", abs(j - 4.0e9) <= 0.05 * 4.0e9),
        (f"A(1.5e11) = {a_low:.4e} s^-1 within factor 3 of 1e-7 "
         f"(off by {ratio_low:.2f}x)", ratio_low <= 3.0),
        (f"A(6.78e12) = {a_high:.4e} s^-1 within factor 3 of 1e-2 "
         f"(off by {ratio_high:.2f}x)", ratio_high <= 3.0),
    ])


def test_criterion_09_oracles_and_audit():
    start = time.perf_counter()
    worst_free = 0.0
    for name in ("free_eg", "free_LL", "free_LR"):
        sc = preset(name)
        t = np.linspace(0.0, sc.horizon, 251)
        states = integrate(
            "derived",
            pure_density(named_state(sc.initial)),
            sc.params,
            t,
        )
        exact = closed_form_free(pure_density(named_state(sc.initial)), sc.params, t)
        worst_free = max(worst_free, np.max(np.abs(states - exact)))

    rng = np.random.default_rng(20260814)
    worst_c = max(
        abs(OBSERVABLES["C"](rho) - concurrence_reference(rho))
        for rho in (random_density(rng) for _ in range(1000))
    )

    params = SystemParams(omega0=OMEGA0, J=J_REF, gamma=1e6)
    divergent = consistency_report(params.J, params.gamma, pure_density(named_state("e1g2")),
                                   5e-9, samples=201)
    agreeing = consistency_report(params.J, params.gamma, pure_density(named_state("L1L2")),
                                  5e-9, samples=201)
    elapsed = time.perf_counter() - start
    report(9, "oracle and generator-audit suite", [
        (f"integrator vs closed form on free presets: {worst_free:.2e} <= 1e-7",
         worst_free <= 1e-7),
        (f"concurrence vs quartic oracle on 1000 states: {worst_c:.2e} <= 1e-9",
         worst_c <= 1e-9),
        (f"published variant keeps rho33-rho22 frozen from |3>: drift "
         f"{divergent.published_pop23_diff_drift:.2e} <= 1e-9 while the derived "
         f"range is {divergent.derived_pop23_diff_range:.2f}",
         divergent.published_pop23_diff_drift <= 1e-9
         and divergent.derived_pop23_diff_range > 0.5),
        (f"variants agree from L1L2: {agreeing.max_rho_deviation:.2e} <= 1e-10",
         agreeing.max_rho_deviation <= 1e-10),
        (f"runtime {elapsed:.2f} s < 30 s", elapsed < 30.0),
    ])


def test_criterion_10_property_suite(tmp_path):
    start = time.perf_counter()
    sc = preset("driven_detuned_s")
    states = integrate(
        "derived",
        pure_density(named_state(sc.initial)),
        sc.params,
        np.linspace(0.0, sc.horizon, 401),
    )
    trace_dev = np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0))
    herm_dev = np.max(np.abs(states - states.conj().transpose(0, 2, 1)))
    min_eig = min(np.min(np.linalg.eigvalsh(rho)) for rho in states)

    rng = np.random.default_rng(7)
    c_range_ok = True
    lu_dev = 0.0

    def u2():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(200):
        rho = random_density(rng)
        c = OBSERVABLES["C"](rho)
        c_range_ok = c_range_ok and 0.0 <= c <= 1.0
    for _ in range(50):
        rho = random_density(rng)
        u = np.kron(u2(), u2())
        lu_dev = max(
            lu_dev,
            abs(OBSERVABLES["C"](u @ rho @ u.conj().T) - OBSERVABLES["C"](rho)),
        )

    table = run_scenario(replace(preset("free_eg"), samples=101))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(table, str(a))
    emit_csv(table, str(b))
    elapsed = time.perf_counter() - start
    report(10, "structural property suite", [
        (f"trace drift {trace_dev:.2e} <= 1e-8", trace_dev <= 1e-8),
        (f"hermiticity drift {herm_dev:.2e} <= 1e-10", herm_dev <= 1e-10),
        (f"most negative eigenvalue {min_eig:.2e} >= -1e-10", min_eig >= -1e-10),
        ("concurrence within [0, 1] on 200 random states", c_range_ok),
        (f"local-unitary invariance {lu_dev:.2e} <= 1e-9", lu_dev <= 1e-9),
        ("CSV emission is byte-deterministic", a.read_bytes() == b.read_bytes()),
        (f"runtime {elapsed:.2f} s < 60 s", elapsed < 60.0),
    ])
