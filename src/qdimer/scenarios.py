"""Named experiment presets and the machinery to run them.

Each preset bundles an initial state, a rate set, a horizon and the
observables worth recording for that situation: free excitation swap,
free evolution of localized-conformation products, the resonantly and
detuned driven pair, field switch-off onto the symmetric state, and the
measurement-interval sweep of the projection protocol.

Free presets resolve the doublet splitting itself (the fast diagonal
phases are physical observables there); driven presets live in the
rotating frame where the exchange rate J is the fastest scale, which is
what makes microsecond horizons affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .concurrence import concurrence_stack
from .integrate import integrate_blocks
from .liouville import RhsVariant, SystemParams, _is_finite_number, _is_integer
from .states import named_state, population, pure_density
from .zeno import ZenoProtocol, analytic_survival, run_zeno

__all__ = [
    "OBSERVABLES",
    "ObservableTable",
    "Scenario",
    "catalog",
    "find_first_maximum",
    "run_scenario",
]


def _entangled_population(name: str) -> Callable[[np.ndarray], np.ndarray]:
    psi = named_state(name)
    return lambda rho: population(rho, psi)


def _concurrence(rho: np.ndarray) -> np.ndarray:
    stack = concurrence_stack(rho)
    stack.check()
    return stack.values[()]


# each entry takes one (4, 4) state or an (N, 4, 4) stack
OBSERVABLES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "rho11": lambda rho: rho[..., 0, 0].real,
    "rho22": lambda rho: rho[..., 1, 1].real,
    "rho33": lambda rho: rho[..., 2, 2].real,
    "rho44": lambda rho: rho[..., 3, 3].real,
    "rho_pp": _entangled_population("p"),
    "rho_ss": _entangled_population("s"),
    "rho_aa": _entangled_population("a"),
    "rho_qq": _entangled_population("q"),
    "rho_ff": _entangled_population("f"),
    "rho_kk": _entangled_population("k"),
    "re_rho23": lambda rho: rho[..., 1, 2].real,
    "C": _concurrence,
}


def _evaluate(
    names: Sequence[str], walk: Iterator[tuple[slice, np.ndarray]], out: np.ndarray
) -> None:
    """Fill out[k, m] = OBSERVABLES[names[m]](state k) from a block walk.

    The walk is always drained before an observable error is raised, so an
    error it raises at its end (the trace guard) takes precedence; among
    observable errors the first block's first column wins.
    """
    error = None
    for rows, states in walk:
        if error is not None:
            continue
        try:
            for m, name in enumerate(names):
                out[rows, m] = OBSERVABLES[name](states)
        except ValueError as exc:
            error = exc
    if error is not None:
        raise error


@dataclass(frozen=True)
class Scenario:
    """One named run: initial state, rates, horizon and recorded columns.

    field_off_time is None (no switching), a time in seconds, or "auto",
    which means "suppress the drive at the first maximum of the symmetric
    population" -- the trigger is then computed from a probe run, never
    hard-coded.  zeno_taus turns the scenario into a measurement-interval
    sweep handled by the projection protocol instead of the integrator.
    """

    name: str
    initial: str
    params: SystemParams
    horizon: float
    observables: tuple[str, ...]
    samples: int = 2001
    field_off_time: float | str | None = None
    zeno_taus: tuple[float, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.initial, str):
            raise ValueError(f"initial must be a state name, got {self.initial!r}")
        if not (_is_finite_number(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if not _is_integer(self.samples):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.samples}")
        if not isinstance(self.observables, tuple):
            raise ValueError(f"observables must be a tuple of names, got {self.observables!r}")
        if not (self.observables or self.zeno_taus):
            raise ValueError(f"observables must list at least one name, got {self.observables!r}")
        unknown = [n for n in self.observables if not (isinstance(n, str) and n in OBSERVABLES)]
        if unknown:
            raise ValueError(
                f"unknown observables {unknown}; valid: {sorted(OBSERVABLES)}"
            )
        repeated = sorted({n for n in self.observables if self.observables.count(n) > 1})
        if repeated:
            raise ValueError(f"observables {repeated} are listed more than once")
        off = self.field_off_time
        if off is not None:
            if not self.params.driven:
                raise ValueError("field_off_time requires a driven scenario")
            if isinstance(off, str):
                if off != "auto":
                    raise ValueError(f"field_off_time must be a time or 'auto', got {off!r}")
                if self.params.Omega <= 0.0:
                    raise ValueError("automatic switch-off needs a nonzero drive")
            elif not (_is_finite_number(off) and 0.0 < off < self.horizon):
                raise ValueError(f"field_off_time {off!r} not inside (0, horizon)")
        if self.zeno_taus:
            if not all(_is_finite_number(tau) and tau > 0.0 for tau in self.zeno_taus):
                raise ValueError(f"zeno_taus must all be > 0, got {self.zeno_taus!r}")
            grid = max(self.zeno_taus)
            for tau in self.zeno_taus:
                for label, total in (("grid interval", grid), ("horizon", self.horizon)):
                    ratio = total / tau
                    if abs(ratio - round(ratio)) > 1e-9 * ratio:
                        raise ValueError(
                            f"zeno tau {tau} does not divide the {label} {total}"
                        )
                # the protocol the run builds checks free evolution and the Zeno window
                ZenoProtocol(
                    tau=tau, n_measurements=round(self.horizon / tau), params=self.params
                )


@dataclass(frozen=True, eq=False)
class ObservableTable:
    """Time series of named observables; data[k, m] is names[m] at times[k]."""

    scenario: str
    times: np.ndarray
    names: tuple[str, ...]
    data: np.ndarray

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise KeyError(f"no column {name!r}; have {self.names}")
        return self.data[:, self.names.index(name)]


def catalog() -> list[Scenario]:
    """The preset list, one entry per named case (plus the slow-dephasing
    switch-off variant, which differs only in gamma)."""
    free = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)
    drive_res = SystemParams(
        omega0=1.5e11, J=4.0e9, gamma=1.0e6, Omega=7.0e7, delta_l=0.0, driven=True
    )
    drive_s = SystemParams(
        omega0=1.5e11, J=4.0e9, gamma=1.0e6, Omega=4.0e7, delta_l=4.0e9, driven=True
    )
    pair_detail = ("rho22", "rho33", "rho44", "rho_ss", "rho_aa", "re_rho23", "C")
    return [
        Scenario(
            name="free_eg",
            initial="e1g2",
            params=free,
            horizon=5e-9,
            observables=("rho11", "rho22", "rho33", "rho44", "rho_ff", "rho_kk", "C"),
            samples=2001,
            description="free excitation swap, one molecule initially excited",
        ),
        Scenario(
            name="free_LL",
            initial="L1L2",
            params=free,
            horizon=5e-9,
            observables=("rho_pp", "rho_qq", "rho_ss", "rho_aa", "re_rho23", "C"),
            samples=5001,
            description="both molecules in the same localized conformation",
        ),
        Scenario(
            name="free_LR",
            initial="L1R2",
            params=free,
            horizon=5e-9,
            observables=("rho_pp", "rho_qq", "rho_ss", "rho_aa", "re_rho23", "C"),
            samples=5001,
            description="molecules in opposite localized conformations",
        ),
        Scenario(
            name="driven_resonant",
            initial="e1e2",
            params=drive_res,
            horizon=5e-6,
            observables=("rho11", "rho44", "rho_ss", "rho_aa", "C"),
            samples=2001,
            description="resonant drive of the doubly excited pair",
        ),
        Scenario(
            name="driven_detuned_s",
            initial="e1e2",
            params=drive_s,
            horizon=2e-7,
            observables=pair_detail,
            samples=2001,
            description="drive detuned onto the symmetric state",
        ),
        Scenario(
            name="driven_detuned_a",
            initial="e1e2",
            params=replace(drive_s, delta_l=-4.0e9),
            horizon=2e-7,
            observables=pair_detail,
            samples=2001,
            description="drive detuned onto the antisymmetric state (forbidden)",
        ),
        Scenario(
            name="switch_off",
            initial="e1e2",
            params=drive_s,
            horizon=3e-6,
            observables=pair_detail,
            samples=3001,
            field_off_time="auto",
            description="suppress the drive at the first symmetric-population maximum",
        ),
        Scenario(
            name="switch_off_gamma1e5",
            initial="e1e2",
            params=replace(drive_s, gamma=1.0e5),
            horizon=3e-6,
            observables=pair_detail,
            samples=3001,
            field_off_time="auto",
            description="switch_off with tenfold slower dephasing",
        ),
        Scenario(
            name="zeno_sweep",
            initial="f",
            params=free,
            horizon=1e-9,
            observables=(),
            zeno_taus=(1e-10, 1e-11, 5e-12),
            description="survival under repeated projection, one column set per interval",
        ),
    ]


def find_first_maximum(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """First local maximum of a sampled series, refined quadratically.

    A series that starts by descending returns its boundary sample (t[0] is
    then a genuine maximum).  A constant or monotonically increasing series
    has no first maximum and raises.  Interior maxima are polished with the
    parabola through the three bracketing samples, computed in local
    coordinates so nanosecond-scale abscissas do not lose precision.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size < 3:
        raise ValueError("need matching 1-d series with at least 3 samples")
    if np.all(values == values[0]):
        raise ValueError("constant series has no maximum")
    if values[0] > values[1]:
        return float(times[0]), float(values[0])
    for i in range(1, times.size - 1):
        if values[i] > values[i - 1] and values[i] >= values[i + 1]:
            d0 = times[i - 1] - times[i]
            d2 = times[i + 1] - times[i]
            w0 = values[i - 1] - values[i]
            w2 = values[i + 1] - values[i]
            det = d0 * d0 * d2 - d2 * d2 * d0
            a = (w0 * d2 - w2 * d0) / det
            b = (w2 * d0 * d0 - w0 * d2 * d2) / det
            if a >= 0.0:  # flat top at sampling resolution
                return float(times[i]), float(values[i])
            u = min(max(-b / (2.0 * a), d0), d2)
            return float(times[i] + u), float(values[i] + (a * u + b) * u)
    raise ValueError("series is monotone; no local maximum")


def _switch_trigger(scenario: Scenario, variant: RhsVariant) -> float:
    """Time of the first maximum of the symmetric population under the drive."""
    params = scenario.params
    # the |4> <-> |s> exchange runs at sqrt(2)*Omega; one full swap period
    # brackets the first maximum comfortably
    probe_horizon = min(scenario.horizon, 1.2 * math.pi / (math.sqrt(2.0) * params.Omega))
    probe_times = np.linspace(0.0, probe_horizon, 3001)
    rho0 = pure_density(named_state(scenario.initial))
    series = np.empty((probe_times.size, 1))
    _evaluate(("rho_ss",), integrate_blocks(variant, rho0, params, probe_times), series)
    try:
        t_off, _ = find_first_maximum(probe_times, series[:, 0])
    except ValueError as exc:
        cut = probe_horizon == scenario.horizon
        hint = "; a longer horizon (--horizon) widens it" if cut else ""
        raise ValueError(
            f"switch-off trigger found no rho_ss maximum in the probe window "
            f"[0, {probe_horizon:.3e}] s ({exc}){hint}"
        ) from exc
    if not 0.0 < t_off < scenario.horizon:
        raise ValueError(f"switch-off trigger {t_off:.3e} s outside (0, horizon)")
    return t_off


def _switch_off_walk(
    variant: RhsVariant, rho0: np.ndarray, params: SystemParams, t_off: float, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """The block walk of a driven segment to t_off, then of free evolution
    with the drive removed, with its rows in the full grid.

    The state is carried across continuously: the driven walk ends on a
    sample at t_off (appended to the grid if it is not on it, and never
    yielded), whose state starts the free walk.  The rotating-frame
    diagonal is kept for the free segment, so only frame-invariant
    observables should be read off afterwards.
    """
    n_head = int(np.searchsorted(times, t_off, side="right"))  # times <= t_off
    head = times[:n_head]
    if not (n_head and head[-1] == t_off):
        head = np.append(head, t_off)
    for rows, states in integrate_blocks(variant, rho0, params, head):
        last = states[-1]
        if rows.start < n_head:
            yield slice(rows.start, min(rows.stop, n_head)), states[: n_head - rows.start]
    if n_head < times.size:
        free = replace(params, Omega=0.0)
        for rows, states in integrate_blocks(variant, last, free, times[n_head:] - t_off):
            yield slice(rows.start + n_head, rows.stop + n_head), states


def _zeno_sweep_table(scenario: Scenario) -> ObservableTable:
    """Survival curves on the shared grid set by the widest interval.

    Per interval: the dephasing run, the coherence-free closed form, and its
    gaussian frequent-measurement approximation.
    """
    grid = max(scenario.zeno_taus)
    n_rows = round(scenario.horizon / grid)
    times = grid * np.arange(n_rows + 1)
    names: list[str] = []
    columns: list[np.ndarray] = []
    for tau in scenario.zeno_taus:
        stride = round(grid / tau)
        n_total = round(scenario.horizon / tau)
        result = run_zeno(
            ZenoProtocol(tau=tau, n_measurements=n_total, params=scenario.params)
        )
        exact = np.empty(n_rows + 1)
        gauss = np.empty(n_rows + 1)
        for r in range(n_rows + 1):
            exact[r], gauss[r] = analytic_survival(scenario.params.J, tau, r * stride)
        label = f"{tau * 1e9:g}ns"
        names += [f"survival_tau{label}", f"exact_tau{label}", f"gauss_tau{label}"]
        columns += [result.survival[::stride], exact, gauss]
    return ObservableTable(
        scenario=scenario.name,
        times=times,
        names=tuple(names),
        data=np.column_stack(columns),
    )


def run_scenario(scenario: Scenario, *, variant: RhsVariant = "derived") -> ObservableTable:
    """Run one preset and evaluate its observables at its `samples` evenly
    spaced times over [0, horizon].

    The states are evaluated block by block as the propagator yields them,
    and only the table is kept.  Errors are raised as if the whole run were
    propagated first: a trace-guard error wins over any observable error.
    """
    if scenario.zeno_taus:
        return _zeno_sweep_table(scenario)
    rho0 = pure_density(named_state(scenario.initial))
    times = np.linspace(0.0, scenario.horizon, scenario.samples)
    names = scenario.observables
    data = np.empty((times.size, len(names)))
    if scenario.field_off_time is None:
        walk = integrate_blocks(variant, rho0, scenario.params, times)
    else:
        t_off = scenario.field_off_time
        if isinstance(t_off, str):
            t_off = _switch_trigger(scenario, variant)
        walk = _switch_off_walk(variant, rho0, scenario.params, t_off, times)
    _evaluate(names, walk, data)
    return ObservableTable(scenario=scenario.name, times=times, names=names, data=data)
