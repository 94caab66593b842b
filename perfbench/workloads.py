"""The benchmark's workloads: which CLI invocations make one pass, and how
each invocation's output is checked.

Every invocation is a list of arguments for ``python -m qdimer.cli`` plus a
check that reads the invocation's stdout and output files and returns a list
of problems (empty when the output is correct).  References come from the
package's exact pieces (``closed_form_free``, ``superoperator`` under
``scipy.linalg.expm``, the Zeno closed form) and from a batched Wootters
concurrence written here, never from the code paths being timed.

Workloads (see README.md for why each was chosen):

* ``free_dense``        the three free presets, 2001-5001 samples with C;
* ``analysis_session``  a drive sweep, an audit, a Zeno chain, the Zeno
                        preset and the automatic switch-off preset at a
                        0.5 us horizon, five interpreter starts per pass.

The seed only draws the sweep values and the audit's initial state; the
preset runs stay fixed because their step counts depend on the initial state.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from qdimer.integrate import closed_form_free
from qdimer.liouville import SystemParams, superoperator
from qdimer.scenarios import find_first_maximum
from qdimer.states import named_state
from qdimer.zeno import analytic_survival

# Acceptance tolerances, set well above what the adaptive stepper reaches at
# the presets' tolerances and far below any physically visible error.
POP_TOL = 1e-6  # populations and coherences against an exact reference
C_TOL = 1e-4  # concurrence is sqrt-sensitive near rank-deficient states
IDENTITY_TOL = 1e-12  # rho_ss + rho_aa = rho22 + rho33, exact up to rounding
ZENO_REL_TOL = 1e-9  # coherence-free survival against [cos^2(J tau)]^k

FREE = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
DRIVE_S = SystemParams(
    omega0=1.5e11, J=4.0e9, gamma=1.0e6, Omega=4.0e7, delta_l=4.0e9, driven=True
)
PAIR_DETAIL = ("rho22", "rho33", "rho44", "rho_ss", "rho_aa", "re_rho23", "C")
SWITCH_OFF_HORIZON = 5e-7
AUDIT_STATES = ("e1g2", "g1e2", "f", "k")  # states whose rho22 - rho33 moves
ZENO_J, ZENO_TAU, ZENO_N = 4.0e9, 1e-13, 10000
ZENO_SWEEP_TAUS = (1e-10, 1e-11, 5e-12)

Check = Callable[[str], "list[str]"]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and the check of what it produced."""

    argv: tuple[str, ...]
    check: Check


# ---------------------------------------------------------------------------
# references

_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def wootters(rhos: np.ndarray) -> np.ndarray:
    """Concurrence of a stack of two-qubit density matrices, shape (N,)."""
    flipped = _SPIN_FLIP @ rhos.conj() @ _SPIN_FLIP
    lam = np.linalg.eigvals(rhos @ flipped).real
    roots = np.sqrt(np.clip(np.sort(lam, axis=1)[:, ::-1], 0.0, None))
    return np.maximum(0.0, roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3])


def observables(rhos: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Columns `names` evaluated on a stack of states, shape (N, len(names))."""
    cols = []
    for name in names:
        if name == "C":
            cols.append(wootters(rhos))
        elif name == "re_rho23":
            cols.append(rhos[:, 1, 2].real)
        elif name.startswith("rho_"):
            psi = named_state(name[4])
            cols.append(np.einsum("i,nij,j->n", psi.conj(), rhos, psi).real)
        else:  # rho11 .. rho44
            i = int(name[3]) - 1
            cols.append(rhos[:, i, i].real)
    return np.column_stack(cols)


def propagate(generator: np.ndarray, rho0: np.ndarray, first: float, step: float,
              count: int) -> np.ndarray:
    """Exact states at first, first + step, ...: one exp(L dt), then matvecs."""
    vec = scipy.linalg.expm(generator * first) @ rho0.reshape(16)
    hop = scipy.linalg.expm(generator * step)
    out = np.empty((count, 16), dtype=complex)
    for k in range(count):
        out[k] = vec
        vec = hop @ vec
    return out.reshape(count, 4, 4)


def driven_reference(params: SystemParams, initial: str, times: np.ndarray) -> np.ndarray:
    """Exact states on a uniform grid starting at t = 0."""
    psi = named_state(initial)
    rho0 = np.outer(psi, psi.conj())
    return propagate(superoperator("derived", params), rho0, 0.0, times[1] - times[0], times.size)


def switch_off_reference(params: SystemParams, initial: str, horizon: float,
                         times: np.ndarray) -> np.ndarray:
    """Exact states of the switch-off preset on a uniform grid.

    The drive goes off where the CLI puts it: at the first maximum of rho_ss
    on the 3001-point probe grid, refined by ``find_first_maximum``.  The tail
    then evolves under the same generator with Omega = 0.
    """
    probe = np.linspace(0.0, min(horizon, 1.2 * math.pi / (math.sqrt(2.0) * params.Omega)), 3001)
    rho_ss = observables(driven_reference(params, initial, probe), ("rho_ss",))[:, 0]
    t_off, _ = find_first_maximum(probe, rho_ss)
    step = times[1] - times[0]
    head = int(np.count_nonzero(times <= t_off))
    psi = named_state(initial)
    rho0 = np.outer(psi, psi.conj())
    driven = superoperator("derived", params)
    rho_off = (scipy.linalg.expm(driven * t_off) @ rho0.reshape(16)).reshape(4, 4)
    free = superoperator("derived", dataclasses.replace(params, Omega=0.0))
    return np.concatenate([
        propagate(driven, rho0, 0.0, step, head),
        propagate(free, rho_off, times[head] - t_off, step, times.size - head),
    ])


def zeno_closed_form(j: float, tau: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coherence-free survival after n projections: exact and gaussian forms."""
    n = np.asarray(n, dtype=float)
    gauss = np.exp(-(j * tau) ** 2 * n)  # exp(-J^2 T^2 / n) with T = n tau
    return (math.cos(j * tau) ** 2) ** n, gauss


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path: str, names: tuple[str, ...], rows: int) -> tuple[np.ndarray | None, list[str]]:
    """Data of a CSV whose header must be `t_s,<names>` with `rows` rows."""
    if not os.path.isfile(path):
        return None, [f"{path}: missing"]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected = ",".join(("t_s",) + names)
    if header != expected:
        return None, [f"{path}: header {header!r}, expected {expected!r}"]
    if data.shape != (rows, len(names) + 1):
        return None, [f"{path}: shape {data.shape}, expected {(rows, len(names) + 1)}"]
    return data, []


def key_values(stdout: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def compare(path: str, names: tuple[str, ...], got: np.ndarray, ref: np.ndarray) -> list[str]:
    problems = []
    for m, name in enumerate(names):
        err = float(np.max(np.abs(got[:, m] - ref[:, m])))
        tol = C_TOL if name == "C" else POP_TOL
        if not err <= tol:
            problems.append(f"{path}: {name} off its reference by {err:.3e} (> {tol:g})")
    return problems


def pair_invariants(path: str, data: np.ndarray) -> list[str]:
    """rho_ss + rho_aa = rho22 + rho33 and 0 <= C <= 1 on PAIR_DETAIL columns."""
    col = {name: data[:, m + 1] for m, name in enumerate(PAIR_DETAIL)}
    problems = []
    gap = float(np.max(np.abs(col["rho_ss"] + col["rho_aa"] - col["rho22"] - col["rho33"])))
    if not gap <= IDENTITY_TOL:
        problems.append(f"{path}: rho_ss + rho_aa - rho22 - rho33 reaches {gap:.3e}")
    if not (np.all(col["C"] >= 0.0) and np.all(col["C"] <= 1.0)):
        problems.append(f"{path}: C outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# checks, one per kind of invocation


def check_free(path: str, initial: str, names: tuple[str, ...], samples: int) -> list[str]:
    data, problems = read_csv(path, names, samples)
    if data is None:
        return problems
    times = data[:, 0]
    psi = named_state(initial)
    ref = observables(closed_form_free(np.outer(psi, psi.conj()), FREE, times), names)
    return compare(path, names, data[:, 1:], ref)


def check_switch_off(path: str) -> list[str]:
    data, problems = read_csv(path, PAIR_DETAIL, 3001)
    if data is None:
        return problems
    problems += pair_invariants(path, data)
    states = switch_off_reference(DRIVE_S, "e1e2", SWITCH_OFF_HORIZON, data[:, 0])
    return problems + compare(path, PAIR_DETAIL, data[:, 1:], observables(states, PAIR_DETAIL))


def check_sweep(base: str, values: tuple[float, ...]) -> list[str]:
    index = base + ".index.csv"
    if not os.path.isfile(index):
        return [f"{index}: missing"]
    with open(index, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "param,value,path" or len(lines) != len(values) + 1:
        return [f"{index}: unexpected layout"]
    problems = []
    for line, value in zip(lines[1:], values):
        param, text, path = line.split(",", 2)
        if param != "Omega" or not math.isclose(float(text), value, rel_tol=1e-15):
            problems.append(f"{index}: row {line!r} does not match Omega={value:g}")
            continue
        data, bad = read_csv(path, PAIR_DETAIL, 2001)
        problems += bad
        if data is None:
            continue
        problems += pair_invariants(path, data)
        params = dataclasses.replace(DRIVE_S, Omega=value)
        ref = observables(driven_reference(params, "e1e2", data[:, 0]), PAIR_DETAIL)
        problems += compare(path, PAIR_DETAIL, data[:, 1:], ref)
    return problems


def check_audit(stdout: str) -> list[str]:
    values = key_values(stdout)
    try:
        drift = float(values["published_pop23_diff_drift"])
        moved = float(values["derived_pop23_diff_range"])
    except (KeyError, ValueError):
        return ["audit: report lines missing"]
    problems = []
    if not drift <= 1e-9:
        problems.append(f"audit: published_pop23_diff_drift = {drift:g}, expected ~0")
    if not moved > 0.0:
        problems.append(f"audit: derived_pop23_diff_range = {moved:g}, expected > 0")
    return problems


def check_zeno(path: str) -> list[str]:
    data, problems = read_csv(path, ("survival",), ZENO_N + 1)
    if data is None:
        return problems
    k = np.arange(ZENO_N + 1)
    exact, _ = zeno_closed_form(ZENO_J, ZENO_TAU, k)
    final, _ = analytic_survival(ZENO_J, ZENO_TAU, ZENO_N)
    err = float(np.max(np.abs(data[:, 1] / exact - 1.0)))
    if not err <= ZENO_REL_TOL or not math.isclose(data[-1, 1], final, rel_tol=ZENO_REL_TOL):
        problems.append(f"{path}: survival off the gamma = 0 closed form by {err:.3e}")
    return problems


def check_zeno_sweep(path: str) -> list[str]:
    names = tuple(
        f"{kind}_tau{tau * 1e9:g}ns"
        for tau in ZENO_SWEEP_TAUS
        for kind in ("survival", "exact", "gauss")
    )
    grid = max(ZENO_SWEEP_TAUS)
    rows = round(1e-9 / grid) + 1
    data, problems = read_csv(path, names, rows)
    if data is None:
        return problems
    for m, tau in enumerate(ZENO_SWEEP_TAUS):
        exact, gauss = zeno_closed_form(FREE.J, tau, round(grid / tau) * np.arange(rows))
        survival = data[:, 1 + 3 * m]
        for got, ref in ((data[:, 2 + 3 * m], exact), (data[:, 3 + 3 * m], gauss)):
            if not np.allclose(got, ref, rtol=ZENO_REL_TOL, atol=0.0):
                problems.append(f"{path}: closed-form columns for tau = {tau:g} s are off")
        # dephasing at gamma = 1e6 over 1 ns moves survival by ~1e-3 at most
        if not (np.all(np.diff(survival) <= 0.0) and np.allclose(survival, exact, atol=1e-2)):
            problems.append(f"{path}: survival for tau = {tau:g} s is not a decaying curve")
    return problems


def check_catalog(stdout: str) -> list[str]:
    names = [line.split(":", 1)[0] for line in stdout.splitlines()]
    if not {"free_eg", "free_LL", "free_LR", "switch_off", "zeno_sweep"} <= set(names):
        return [f"catalog: presets missing from {names}"]
    return []


# ---------------------------------------------------------------------------
# workloads

FREE_PRESETS = (
    ("free_eg", "e1g2", ("rho11", "rho22", "rho33", "rho44", "rho_ff", "rho_kk", "C"), 2001),
    ("free_LL", "L1L2", ("rho_pp", "rho_qq", "rho_ss", "rho_aa", "re_rho23", "C"), 5001),
    ("free_LR", "L1R2", ("rho_pp", "rho_qq", "rho_ss", "rho_aa", "re_rho23", "C"), 5001),
)


def catalog_invocation() -> Invocation:
    return Invocation(("catalog",), check_catalog)


def free_dense(seed: int, out: str) -> list[Invocation]:
    calls = []
    for name, initial, names, samples in FREE_PRESETS:
        path = os.path.join(out, name + ".csv")
        calls.append(Invocation(
            ("run", "--scenario", name, "--out", path),
            lambda _, p=path, i=initial, c=names, s=samples: check_free(p, i, c, s),
        ))
    return calls


def switch_off_invocation(out: str) -> Invocation:
    path = os.path.join(out, "switch_off.csv")
    return Invocation(
        ("run", "--scenario", "switch_off", "--horizon", repr(SWITCH_OFF_HORIZON),
         "--out", path),
        lambda _: check_switch_off(path),
    )


def sweep_values(seed: int) -> tuple[float, ...]:
    """Three drive strengths symmetric about the preset's 4e7 s^-1.

    The stepper's step count grows about linearly with Omega, so a symmetric
    triple keeps the work of a pass nearly independent of the seed.
    """
    offset = float(f"{random.Random(seed).uniform(5e6, 1.5e7):.3g}")
    return (4e7 - offset, 4e7, 4e7 + offset)


def sweep_invocation(seed: int, out: str, name: str = "detuned") -> Invocation:
    values = sweep_values(seed)
    base = os.path.join(out, name)
    return Invocation(
        ("run", "--scenario", "driven_detuned_s",
         "--sweep", "Omega=" + ",".join(f"{v:g}" for v in values), "--out", base + ".csv"),
        lambda _: check_sweep(base, values),
    )


def analysis_session(seed: int, out: str) -> list[Invocation]:
    initial = random.Random(seed).choice(AUDIT_STATES)
    zeno_path = os.path.join(out, "zeno.csv")
    sweep_path = os.path.join(out, "zeno_sweep.csv")
    return [
        sweep_invocation(seed, out),
        Invocation(("audit", "--initial", initial, "--horizon", "5ns"), check_audit),
        Invocation(
            ("zeno", "--tau", repr(ZENO_TAU), "--N", str(ZENO_N), "--J", repr(ZENO_J),
             "--gamma", "0", "--out", zeno_path),
            lambda _: check_zeno(zeno_path),
        ),
        Invocation(("run", "--scenario", "zeno_sweep", "--out", sweep_path),
                   lambda _: check_zeno_sweep(sweep_path)),
        switch_off_invocation(out),
    ]


WORKLOADS: dict[str, Callable[[int, str], list[Invocation]]] = {
    "free_dense": free_dense,
    "analysis_session": analysis_session,
}
