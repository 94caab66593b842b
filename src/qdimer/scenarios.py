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
from typing import Callable, Iterator

import numpy as np

from .concurrence import concurrence_stack
from .integrate import UniformGrid, integrate_blocks
from .liouville import (RhsVariant, SystemParams, _check_nonnegative, _check_positive,
                        _check_samples, _shown, superoperator)
from .states import _checked_populations, named_state, population, pure_density
from .zeno import _check_chain, _intervals, analytic_survival, run_zeno

__all__ = [
    "OBSERVABLES",
    "ObservableTable",
    "Scenario",
    "ZenoSweep",
    "catalog",
    "find_first_maximum",
    "run_scenario",
]

# the NH3 rates of the presets and of the commands' defaults
NH3 = SystemParams(omega0=1.5e11, J=4.0e9, gamma=1.0e6)


def _entangled_population(name: str) -> Callable[[np.ndarray], np.ndarray]:
    psi = named_state(name)
    return lambda rho: population(rho, psi)


def _concurrence(rho: np.ndarray) -> np.ndarray:
    stack = concurrence_stack(rho)
    stack.check()
    return stack.values[()]


# each entry takes one (4, 4) state or an (N, 4, 4) stack
OBSERVABLES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "rho11": lambda rho: _checked_populations(rho[..., 0, 0].real),
    "rho22": lambda rho: _checked_populations(rho[..., 1, 1].real),
    "rho33": lambda rho: _checked_populations(rho[..., 2, 2].real),
    "rho44": lambda rho: _checked_populations(rho[..., 3, 3].real),
    "rho_pp": _entangled_population("p"),
    "rho_ss": _entangled_population("s"),
    "rho_aa": _entangled_population("a"),
    "rho_qq": _entangled_population("q"),
    "rho_ff": _entangled_population("f"),
    "rho_kk": _entangled_population("k"),
    "re_rho23": lambda rho: rho[..., 1, 2].real,
    "C": _concurrence,
}


@dataclass(frozen=True)
class Scenario:
    """One named run: initial state, rates, horizon and recorded columns.

    field_off_time is None (no switching) or "auto", which means "suppress
    the drive at the first maximum of the symmetric population" -- the
    trigger is computed from a probe run, never hard-coded.  A driven run
    lives in the rotating frame of its drive, so it cannot record rho_pp or
    rho_qq: both read Re rho14, which that frame turns at twice the drive
    frequency.
    """

    name: str
    initial: str
    params: SystemParams
    horizon: float
    observables: tuple[str, ...]
    samples: int = 2001
    field_off_time: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.initial, str):
            raise ValueError(f"initial must be a state name, got {_shown(self.initial)}")
        named_state(self.initial)  # refuses a name no state has
        _check_positive("horizon", self.horizon)
        _check_samples(self.samples)
        if not isinstance(self.observables, tuple):
            raise ValueError(
                f"observables must be a tuple of names, got {_shown(self.observables)}")
        if not self.observables:
            raise ValueError(f"observables must list at least one name, got {self.observables!r}")
        unknown = [n for n in self.observables if not (isinstance(n, str) and n in OBSERVABLES)]
        if unknown:
            raise ValueError(
                f"unknown observables {_shown(unknown)}; valid: {sorted(OBSERVABLES)}"
            )
        repeated = sorted({n for n in self.observables if self.observables.count(n) > 1})
        if repeated:
            raise ValueError(f"observables {repeated} are listed more than once")
        if self.field_off_time is not None:
            if not self.params.driven:
                raise ValueError("field_off_time requires a driven scenario")
            if self.field_off_time != "auto":
                raise ValueError(
                    f"field_off_time must be 'auto', got {_shown(self.field_off_time)}")
            if self.params.Omega <= 0.0:
                raise ValueError("automatic switch-off needs a nonzero drive")
        for name in ("rho_pp", "rho_qq"):
            if self.params.driven and name in self.observables:
                raise ValueError(f"{name} reads Re rho14, whose phase turns in the rotating "
                                 "frame of a driven run; only a free run records it")


@dataclass(frozen=True, eq=False)
class ObservableTable:
    """Time series of named observables; data[k, m] is names[m] at times[k]."""

    times: np.ndarray
    names: tuple[str, ...]
    data: np.ndarray


@dataclass(frozen=True)
class ZenoSweep:
    """For each tau in zeno_taus, the chain of projections onto |f> every tau over the horizon."""

    name: str
    J: float
    gamma: float
    horizon: float
    zeno_taus: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_nonnegative(J=self.J, gamma=self.gamma)
        _check_positive("horizon", self.horizon)
        if not (isinstance(self.zeno_taus, tuple) and self.zeno_taus):
            raise ValueError(f"zeno_taus must list at least one tau, got {_shown(self.zeno_taus)}")
        for tau in self.zeno_taus:
            _check_positive("zeno_taus", tau)
        list(self._schedule())  # checks every tau's schedule

    def _schedule(self) -> Iterator[tuple[float, int, int]]:
        """Each tau, its stride on the grid of the widest tau, and its count over the horizon."""
        grid = max(self.zeno_taus)
        for tau in self.zeno_taus:
            counts = []
            for label, total in (("grid interval", grid), ("horizon", self.horizon)):
                counts.append(_intervals(total, tau))
                if counts[-1] is None:
                    raise ValueError(f"zeno tau {tau} does not divide the {label} {total}")
            stride, n = counts
            _check_chain(tau, n, self.J, self.gamma)  # checks the Zeno window
            yield tau, stride, n

    def table(self) -> ObservableTable:
        """Per tau, on the grid of the widest tau: the dephasing run's survival, the
        coherence-free closed form and its gaussian frequent-measurement approximation."""
        names: list[str] = []
        columns: list[np.ndarray] = []
        for tau, stride, n in self._schedule():
            n_rows = n // stride  # the same for every tau
            rows = [analytic_survival(self.J, tau, r * stride) for r in range(n_rows + 1)]
            exact, gauss = np.array(rows).T
            label = f"{tau * 1e9:g}ns"
            names += [f"survival_tau{label}", f"exact_tau{label}", f"gauss_tau{label}"]
            columns += [run_zeno(tau, n, self.J, self.gamma)[::stride], exact, gauss]
        times = max(self.zeno_taus) * np.arange(n_rows + 1)
        return ObservableTable(times=times, names=tuple(names), data=np.column_stack(columns))


def catalog() -> list[Scenario | ZenoSweep]:
    """The preset list, one entry per named case (plus the slow-dephasing
    switch-off variant, which differs only in gamma)."""
    drive_s = replace(NH3, Omega=4.0e7, delta_l=4.0e9, driven=True)
    pair_detail = ("rho22", "rho33", "rho44", "rho_ss", "rho_aa", "re_rho23", "C")
    free_ll = Scenario(
        name="free_LL",
        initial="L1L2",
        params=NH3,
        horizon=5e-9,
        observables=("rho_pp", "rho_qq", "rho_ss", "rho_aa", "re_rho23", "C"),
        samples=5001,
    )
    detuned_s = Scenario(
        name="driven_detuned_s",
        initial="e1e2",
        params=drive_s,
        horizon=2e-7,
        observables=pair_detail,
    )
    switch_off = replace(
        detuned_s, name="switch_off", horizon=3e-6, samples=3001, field_off_time="auto"
    )
    return [
        Scenario(
            name="free_eg",
            initial="e1g2",
            params=NH3,
            horizon=5e-9,
            observables=("rho11", "rho22", "rho33", "rho44", "rho_ff", "rho_kk", "C"),
        ),
        free_ll,
        replace(free_ll, name="free_LR", initial="L1R2"),
        Scenario(
            name="driven_resonant",
            initial="e1e2",
            params=replace(NH3, Omega=7.0e7, driven=True),
            horizon=5e-6,
            observables=("rho11", "rho44", "rho_ss", "rho_aa", "C"),
        ),
        detuned_s,
        replace(detuned_s, name="driven_detuned_a", params=replace(drive_s, delta_l=-4.0e9)),
        switch_off,
        replace(switch_off, name="switch_off_gamma1e5", params=replace(drive_s, gamma=1.0e5)),
        ZenoSweep(
            name="zeno_sweep",
            J=NH3.J,
            gamma=NH3.gamma,
            horizon=1e-9,
            zeno_taus=(1e-10, 1e-11, 5e-12),
        ),
    ]


def find_first_maximum(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """First local maximum of a sampled series, refined quadratically.

    A series that starts by descending returns its boundary sample (t[0] is
    then a genuine maximum).  A constant or monotonically increasing series
    has no first maximum and raises, as do times that are not finite and
    strictly increasing and values that are not finite.  Interior maxima are
    polished with the parabola through the three bracketing samples, computed
    in local coordinates so nanosecond-scale abscissas do not lose precision.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size < 3:
        raise ValueError("need matching 1-d series with at least 3 samples")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("sample times must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise ValueError("sampled values must be finite")
    if np.all(values == values[0]):
        raise ValueError("constant series has no maximum")
    if values[0] > values[1]:
        return float(times[0]), float(values[0])
    for i in range(1, times.size - 1):
        if values[i] > values[i - 1] and values[i] >= values[i + 1]:
            # the spacings, scaled exactly by a power of two to near 1, so that
            # det, their cube, does not underflow on a fine grid
            _, e = math.frexp(times[i + 1] - times[i])
            d0 = math.ldexp(times[i - 1] - times[i], -e)
            d2 = math.ldexp(times[i + 1] - times[i], -e)
            w0 = values[i - 1] - values[i]
            w2 = values[i + 1] - values[i]
            det = d0 * d0 * d2 - d2 * d2 * d0
            a = (w0 * d2 - w2 * d0) / det
            b = (w2 * d0 * d0 - w0 * d2 * d2) / det
            if a >= 0.0:  # flat top at sampling resolution
                return float(times[i]), float(values[i])
            u = min(max(-b / (2.0 * a), d0), d2)
            return float(times[i] + math.ldexp(u, e)), float(values[i] + (a * u + b) * u)
    raise ValueError("series is monotone; no local maximum")


def _switch_trigger(scenario: Scenario, variant: RhsVariant) -> float:
    """Time of the first maximum of the symmetric population under the drive,
    found on a short driven run of the same preset that records rho_ss only."""
    # the |4> <-> |s> exchange runs at sqrt(2)*Omega; one full swap period
    # brackets the first maximum comfortably
    probe_horizon = min(scenario.horizon, 1.2 * math.pi / (math.sqrt(2.0) * scenario.params.Omega))
    probe = run_scenario(replace(scenario, horizon=probe_horizon, samples=3001,
                                 observables=("rho_ss",), field_off_time=None), variant=variant)
    try:
        t_off, _ = find_first_maximum(probe.times, probe.data[:, 0])
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


def _walk(
    scenario: Scenario, variant: RhsVariant, grid: UniformGrid
) -> Iterator[tuple[slice, np.ndarray]]:
    """The block walk of a run over its grid, from its initial state.

    A switch-off run is three plain walks, none of which yields a sample
    its caller must hide: the driven walk over the grid samples at or
    before the trigger t_off; a one-sample driven walk from its last state
    to t_off (a step of 0 when t_off is on the grid); and the free walk
    from that state with the drive removed, its rows shifted into the full
    grid.  The free segment stays in the rotating frame.
    """
    rho0 = pure_density(named_state(scenario.initial))
    lv = superoperator(variant, scenario.params)
    if scenario.field_off_time is None:
        yield from integrate_blocks(lv, rho0, grid)
        return
    t_off = _switch_trigger(scenario, variant)
    times = grid[:]
    # 0 = times[0] <= t_off < horizon = times[-1], so 1 <= n_head < times.size
    n_head = int(np.searchsorted(times, t_off, side="right"))
    for rows, states in integrate_blocks(lv, rho0, times[:n_head]):
        yield rows, states
    [(_, at_off)] = integrate_blocks(lv, states[-1], [t_off - times[n_head - 1]])
    free = superoperator(variant, replace(scenario.params, Omega=0.0))
    for rows, states in integrate_blocks(free, at_off[0], times[n_head:] - t_off):
        yield slice(rows.start + n_head, rows.stop + n_head), states


def _run_blocks(
    scenario: Scenario, variant: RhsVariant
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block's times and observables, data[k, m] the m-th at times[k], as the
    walk reaches it.  The first block that fails, in the walk or in an observable,
    raises, and nothing past it is stepped; without a switch-off, no sample time
    past it is computed either."""
    grid = UniformGrid(scenario.horizon, scenario.samples)
    for rows, states in _walk(scenario, variant, grid):
        yield grid[rows], np.column_stack([OBSERVABLES[n](states) for n in scenario.observables])


def run_scenario(scenario: Scenario, *, variant: RhsVariant = "derived") -> ObservableTable:
    """Run one preset and evaluate its observables at its `samples` evenly
    spaced times over [0, horizon]: the blocks of `_run_blocks` in one table."""
    times = np.empty(scenario.samples)
    data = np.empty((scenario.samples, len(scenario.observables)))
    start = 0
    for block_times, block in _run_blocks(scenario, variant):
        rows = slice(start, start + block_times.size)
        times[rows], data[rows] = block_times, block
        start = rows.stop
    return ObservableTable(times=times, names=scenario.observables, data=data)
