"""Command-line front end.

Subcommands: ``run`` (scenario or custom run -> CSV, with optional
parameter sweeps), ``catalog`` (preset listing), ``zeno`` (survival
curves), ``audit`` (published-vs-derived consistency report),
``constants`` (derived rates from molecular inputs), and ``plot``
(gnuplot-dialect script emission from previously written CSVs).

Unit-suffix parsing happens here and nowhere else; everything handed to
the library is SI doubles.  Rates are angular (s^-1).  Exit codes:
0 success, 2 bad flags or values, 4 file-system problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .audit import consistency_report
from .liouville import SystemParams
from .physics import DEBYE, MolecularConstants, dipole_coupling, einstein_a, rabi_frequency
from .scenarios import ObservableTable, Scenario, catalog, run_scenario
from .states import blocks, named_state, pure_density
from .zeno import ZenoProtocol, analytic_survival, run_zeno

__all__ = ["RunConfig", "emit_csv", "emit_plot_script", "main"]


# ---------------------------------------------------------------------------
# unit parsing (the single conversion boundary)

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_LENGTH_UNITS = {"m": 1.0, "um": 1e-6, "nm": 1e-9, "pm": 1e-12}
_DIPOLE_UNITS = {"D": DEBYE, "C*m": 1.0, "Cm": 1.0}
_FIELD_UNITS = {"V/m": 1.0, "kV/m": 1e3, "MV/m": 1e6}
_RATE_UNITS = {"s^-1": 1.0, "1/s": 1.0, "rad/s": 1.0}

# a number (nan and inf included, so they can be refused by name) and a unit
_QUANTITY_RE = re.compile(
    r"([+-]?(?:[0-9.]+(?:[eE][+-]?[0-9]+)?|(?i:inf(?:inity)?|nan)))\s*(.*)"
)


def parse_quantity(text: str, units: dict[str, float], kind: str) -> float:
    match = _QUANTITY_RE.fullmatch(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse {kind} value {text!r}")
    try:
        value = float(match.group(1))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"cannot parse {kind} value {text!r}") from err
    suffix = match.group(2).strip().replace("µ", "u").replace("μ", "u")
    if suffix:  # bare numbers are already SI
        if suffix not in units:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} unit {suffix!r}; accepted: {', '.join(sorted(units))}"
            )
        value *= units[suffix]
    if not math.isfinite(value):  # 1e400 parses as inf
        raise argparse.ArgumentTypeError(f"{kind} value {text!r} is not finite")
    return value


def time_quantity(text: str) -> float:
    return parse_quantity(text, _TIME_UNITS, "time")


def length_quantity(text: str) -> float:
    return parse_quantity(text, _LENGTH_UNITS, "length")


def dipole_quantity(text: str) -> float:
    return parse_quantity(text, _DIPOLE_UNITS, "dipole")


def field_quantity(text: str) -> float:
    return parse_quantity(text, _FIELD_UNITS, "field")


def rate_quantity(text: str) -> float:
    return parse_quantity(text, _RATE_UNITS, "rate")


# ---------------------------------------------------------------------------
# run configuration

_PARAM_FIELDS = ("omega0", "J", "Omega", "gamma", "delta_l")
# each sweepable field with the unit parser of its own flag
_SWEEP_FIELDS = {
    "omega0": rate_quantity,
    "J": rate_quantity,
    "Omega": rate_quantity,
    "gamma": rate_quantity,
    "delta_l": rate_quantity,
    "horizon": time_quantity,
}
_SCHEMA_VERSION = 1


def _require_finite(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Flat, JSON-serializable description of one `run` invocation.

    Either names a preset (optional fields then act as overrides) or is
    fully custom (initial + J + horizon required).  None means "not set".
    """

    out: str
    scenario: str | None = None
    initial: str | None = None
    omega0: float | None = None
    J: float | None = None
    Omega: float | None = None
    gamma: float | None = None
    delta_l: float | None = None
    driven: bool | None = None
    horizon: float | None = None
    samples: int | None = None
    observables: tuple[str, ...] | None = None
    rhs: str = "derived"
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] = ()
    schema_version: int = _SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this build reads version {_SCHEMA_VERSION})"
            )
        if not self.out:
            raise ValueError("config needs an output path")
        if self.rhs not in ("derived", "published"):
            raise ValueError(f"rhs must be 'derived' or 'published', got {self.rhs!r}")
        if self.scenario is None and self.initial is None:
            raise ValueError("config needs a scenario name or an initial state")
        for name in _PARAM_FIELDS + ("horizon",):
            value = getattr(self, name)
            if value is not None:
                _require_finite(name, value)
        for value in self.sweep_values:
            _require_finite("sweep value", value)
        if self.driven is not None and not isinstance(self.driven, bool):
            raise ValueError(f"driven must be true, false or null, got {self.driven!r}")
        if self.samples is not None and (
            isinstance(self.samples, bool) or not isinstance(self.samples, int)
        ):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.sweep_param is not None:
            if self.sweep_param not in _SWEEP_FIELDS:
                raise ValueError(
                    f"sweep parameter must be one of {', '.join(_SWEEP_FIELDS)}"
                )
            if not self.sweep_values:
                raise ValueError("sweep needs at least one value")

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        if doc["observables"] is not None:
            doc["observables"] = list(doc["observables"])
        doc["sweep_values"] = list(doc["sweep_values"])
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        # schema-1 files written while the propagator was adaptive carry its
        # tolerances; exact propagation meets any tolerance, so they are dropped
        doc.pop("rel_tol", None)
        doc.pop("abs_tol", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        if doc.get("observables") is not None:
            if not isinstance(doc["observables"], list):
                raise ValueError(
                    f"observables must be a list of names, got {doc['observables']!r}"
                )
            doc["observables"] = tuple(doc["observables"])
        if doc.get("sweep_values") is not None:
            doc["sweep_values"] = tuple(doc["sweep_values"])
        return cls(**doc)


def _scenario_from_config(cfg: RunConfig) -> Scenario:
    if cfg.scenario is not None:
        presets = {s.name: s for s in catalog()}
        if cfg.scenario not in presets:
            raise ValueError(
                f"unknown scenario {cfg.scenario!r}; the catalog command lists presets"
            )
        sc = presets[cfg.scenario]
        param_over = {
            name: getattr(cfg, name)
            for name in _PARAM_FIELDS
            if getattr(cfg, name) is not None
        }
        if cfg.driven is not None:
            param_over["driven"] = cfg.driven
        if param_over:
            sc = replace(sc, params=replace(sc.params, **param_over))
        scalar_over = {
            name: getattr(cfg, name)
            for name in ("initial", "horizon", "samples", "observables")
            if getattr(cfg, name) is not None
        }
        if scalar_over:
            sc = replace(sc, **scalar_over)
        return sc
    if cfg.initial is None or cfg.J is None or cfg.horizon is None:
        raise ValueError("custom runs need --initial, --J and --horizon (or --scenario)")
    params = SystemParams(
        omega0=cfg.omega0 if cfg.omega0 is not None else 1.5e11,
        J=cfg.J,
        gamma=cfg.gamma if cfg.gamma is not None else 0.0,
        Omega=cfg.Omega if cfg.Omega is not None else 0.0,
        delta_l=cfg.delta_l if cfg.delta_l is not None else 0.0,
        driven=bool(cfg.driven),
    )
    return Scenario(
        name="custom",
        initial=cfg.initial,
        params=params,
        horizon=cfg.horizon,
        observables=cfg.observables
        if cfg.observables is not None
        else ("rho11", "rho22", "rho33", "rho44", "C"),
        samples=cfg.samples if cfg.samples is not None else 2001,
    )


# ---------------------------------------------------------------------------
# output emission

def emit_csv(table: ObservableTable, path: str) -> None:
    """Deterministic CSV: header `t_s,<names...>`, 17-significant-digit
    scientific notation, LF newlines, UTF-8 bytes.

    Rows are formatted and written a block at a time, so the text of the
    whole file is never held in memory.
    """
    row = ",".join(["%.16e"] * (1 + len(table.names))) + "\n"
    with open(path, "wb") as fh:
        fh.write(("t_s," + ",".join(table.names) + "\n").encode("utf-8"))
        for block in blocks(table.times.size):
            cells = np.column_stack([table.times[block], table.data[block]])
            fh.write((row * len(cells) % tuple(cells.ravel().tolist())).encode("utf-8"))


@dataclass(frozen=True)
class FigureSpec:
    columns: tuple[str, ...]  # plotted from every CSV given
    xscale: float  # multiplier from seconds to the display unit
    xlabel: str
    ylabel: str
    caption: str


_NS = (1e9, "t (ns)")
_US = (1e6, "t (us)")

FIGURES: dict[str, FigureSpec] = {
    "fig3a": FigureSpec(("C", "rho_ff"), *_NS, "population / concurrence",
                        "free swap, one molecule excited"),
    "fig3b": FigureSpec(
        ("survival_tau0.1ns", "survival_tau0.01ns", "survival_tau0.005ns",
         "gauss_tau0.1ns", "gauss_tau0.01ns", "gauss_tau0.005ns"),
        *_NS, "survival", "projection-interval sweep"),
    "fig4a": FigureSpec(("rho_pp", "rho_qq", "rho_ss", "rho_aa", "C"), *_NS,
                        "population / concurrence", "free run from a same-side product"),
    "fig4b": FigureSpec(("rho_pp", "rho_qq", "rho_ss", "rho_aa", "C"), *_NS,
                        "population / concurrence", "free run from an opposite-side product"),
    "fig5a": FigureSpec(("C", "rho11", "rho44"), *_US,
                        "population / concurrence", "resonant drive"),
    "fig5b": FigureSpec(("C",), *_US, "concurrence", "drive-strength sweep"),
    "fig5c": FigureSpec(("C",), *_US, "concurrence", "coupling-strength sweep"),
    "fig5d": FigureSpec(("C",), *_US, "concurrence", "weak-coupling detail"),
    "fig6a": FigureSpec(("C", "rho_ss"), *_US, "population / concurrence",
                        "drive detuned onto the symmetric state"),
    "fig6b": FigureSpec(("C", "rho_ss"), *_US, "population / concurrence",
                        "switch-off at the symmetric maximum, two dephasing rates"),
}


def _column_index(path: str, name: str) -> int:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if name not in header:
        raise ValueError(f"{path} has no column {name!r} (found {', '.join(header)})")
    return header.index(name) + 1  # gnuplot columns are 1-based


def emit_plot_script(csv_paths: Sequence[str], figure_id: str, out_path: str) -> None:
    """Write a gnuplot-dialect script plotting `figure_id` from the CSVs.

    The script is emitted as data and never executed here.
    """
    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure id {figure_id!r}; known: {', '.join(sorted(FIGURES))}"
        )
    if not csv_paths:
        raise ValueError("need at least one CSV path")
    for path in csv_paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing CSV {path}")
    spec = FIGURES[figure_id]
    curves = []
    for path in csv_paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        for column in spec.columns:
            idx = _column_index(path, column)
            title = column if len(csv_paths) == 1 else f"{column} [{stem}]"
            curves.append(
                f'  "{path}" using ($1*{spec.xscale:g}):{idx} with lines title "{title}"'
            )
    lines = [
        f"# {figure_id}: {spec.caption}",
        'set datafile separator ","',
        "set termoption noenhanced",
        "set key top right",
        f'set xlabel "{spec.xlabel}"',
        f'set ylabel "{spec.ylabel}"',
        "plot \\",
        ", \\\n".join(curves),
    ]
    with open(out_path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# subcommands

def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
        overrides = {}
        if args.out is not None:
            overrides["out"] = args.out
        if args.rhs is not None:
            overrides["rhs"] = args.rhs
        return replace(cfg, **overrides) if overrides else cfg
    if args.out is None:
        raise ValueError("--out is required unless a --config provides it")
    sweep_param, sweep_values = None, ()
    if args.sweep is not None:
        if "=" not in args.sweep:
            raise ValueError("--sweep expects <param>=<v1,v2,...>")
        sweep_param, _, tail = args.sweep.partition("=")
        sweep_param = sweep_param.strip()
        if sweep_param not in _SWEEP_FIELDS:
            raise ValueError(f"sweep parameter must be one of {', '.join(_SWEEP_FIELDS)}")
        parse = _SWEEP_FIELDS[sweep_param]
        try:
            sweep_values = tuple(parse(v) for v in tail.split(",") if v.strip())
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"bad sweep values in {args.sweep!r}: {err}") from err
    observables = None
    if args.observables is not None:
        observables = tuple(n.strip() for n in args.observables.split(",") if n.strip())
    return RunConfig(
        out=args.out,
        scenario=args.scenario,
        initial=args.initial,
        omega0=args.omega0,
        J=args.J,
        Omega=args.Omega,
        gamma=args.gamma,
        delta_l=args.delta_l,
        driven=args.driven,
        horizon=args.horizon,
        samples=args.samples,
        observables=observables,
        rhs=args.rhs if args.rhs is not None else "derived",
        sweep_param=sweep_param,
        sweep_values=sweep_values,
    )


def _sweep_paths(cfg: RunConfig) -> tuple[str, list[str]]:
    base = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
    points: list[str] = []
    for value in cfg.sweep_values:
        path = f"{base}.{cfg.sweep_param}{value:g}.csv"
        if path in points:
            # {value:g} keeps 6 significant digits, so close values share a name
            first = cfg.sweep_values[points.index(path)]
            raise ValueError(
                f"sweep values {first!r} and {value!r} would both write {path}"
            )
        points.append(path)
    return base + ".index.csv", points


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    index_path, points = None, [(cfg, cfg.out)]
    if cfg.sweep_param is not None:
        index_path, paths = _sweep_paths(cfg)
        points = [
            (replace(cfg, sweep_param=None, sweep_values=(), **{cfg.sweep_param: value}), path)
            for value, path in zip(cfg.sweep_values, paths)
        ]
    # every point is resolved (and so validated) before the first one runs, and
    # every point runs before the first file is written, so a point that fails,
    # even in its switch-off trigger search, leaves no file behind
    scenarios = [(_scenario_from_config(point), path) for point, path in points]
    tables = [(run_scenario(sc, variant=cfg.rhs), path) for sc, path in scenarios]
    if args.save_config is not None:
        with open(args.save_config, "w", encoding="utf-8") as fh:
            fh.write(cfg.to_json())
        print(f"wrote {args.save_config}")
    for table, path in tables:
        emit_csv(table, path)
        if index_path is None:
            print(f"wrote {path} ({table.times.size} rows, {len(table.names)} columns)")
        else:
            print(f"wrote {path}")
    if index_path is not None:
        lines = ["param,value,path"]
        lines += [
            f"{cfg.sweep_param},{value:.16e},{path}"
            for value, (_, path) in zip(cfg.sweep_values, points)
        ]
        with open(index_path, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        print(f"wrote {index_path}")
    return 0


def describe_scenario(sc: Scenario) -> str:
    p = sc.params
    parts = [
        f"{sc.name}:",
        f"initial={sc.initial}",
        f"omega0={p.omega0:g}",
        f"J={p.J:g}",
        f"gamma={p.gamma:g}",
        f"Omega={p.Omega:g}",
        f"delta_l={p.delta_l:g}",
        f"driven={p.driven}",
        f"horizon={sc.horizon:g}",
        f"samples={sc.samples}",
    ]
    if sc.field_off_time is not None:
        parts.append(f"field_off={sc.field_off_time}")
    if sc.zeno_taus:
        parts.append("zeno_taus=" + ",".join(f"{t:g}" for t in sc.zeno_taus))
    if sc.observables:
        parts.append("observables=" + ",".join(sc.observables))
    return " ".join(parts)


def cmd_catalog(args: argparse.Namespace) -> int:
    for sc in catalog():
        print(describe_scenario(sc))
    return 0


def cmd_zeno(args: argparse.Namespace) -> int:
    if args.N is not None:
        n = args.N
    else:
        if not args.tau > 0.0:
            raise ValueError(f"--tau must be > 0, got {args.tau:g} s")
        ratio = args.T / args.tau
        n = round(ratio)
        if n < 1 or abs(ratio - n) > 1e-9 * ratio:
            raise ValueError(f"--T {args.T:g} s is not a whole number of tau intervals")
    params = SystemParams(omega0=args.omega0, J=args.J, gamma=args.gamma)
    protocol = ZenoProtocol(tau=args.tau, n_measurements=n, params=params)
    result = run_zeno(protocol)
    exact, gauss = analytic_survival(args.J, args.tau, n)
    print(f"tau_s = {args.tau:.6e}")
    print(f"n_measurements = {n}")
    print(f"total_time_s = {protocol.total_time:.6e}")
    print(f"survival = {result.survival[-1]:.6e}")
    print(f"survival_exact_gamma0 = {exact:.6e}")
    print(f"survival_gaussian = {gauss:.6e}")
    if args.out is not None:
        table = ObservableTable(
            scenario="zeno",
            times=result.times,
            names=("survival",),
            data=result.survival[:, None],
        )
        emit_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    params = SystemParams(omega0=args.omega0, J=args.J, gamma=args.gamma)
    rho0 = pure_density(named_state(args.initial))
    report = consistency_report(params, rho0, args.horizon, samples=args.samples)
    print(f"initial = {args.initial}")
    print(f"horizon_s = {args.horizon:.6e}")
    print(f"max_population_deviation = {report.max_population_deviation:.6e}")
    print(f"max_rho_deviation = {report.max_rho_deviation:.6e}")
    print(f"max_concurrence_deviation = {report.max_concurrence_deviation:.6e}")
    print(f"concurrence_skipped = {report.concurrence_skipped}")
    print(f"published_trace_drift_no_closure = {report.published_trace_drift_no_closure:.6e}")
    print(f"published_pop23_diff_drift = {report.published_pop23_diff_drift:.6e}")
    print(f"derived_pop23_diff_range = {report.derived_pop23_diff_range:.6e}")
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    constants = MolecularConstants(d0=args.d0, r=args.r, mu_eg=args.mu_eg, E_l=args.E_l or 0.0)
    print(f"J = {dipole_coupling(constants):.6e} s^-1")
    print(f"einstein_a = {einstein_a(constants.mu_eg, args.omega0):.6e} s^-1")
    if args.E_l is not None:
        print(f"Omega = {rabi_frequency(constants.mu_eg, args.E_l):.6e} s^-1")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    emit_plot_script(args.csv, args.figure, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    """Takes "-4e7" or "-2ns" after a flag as the flag's value.

    argparse only takes plain negative numbers such as "-4" or "-0.5" for
    values and reads any other argument that starts with "-" as an option,
    so "--delta-l -4e7" failed while "--delta-l=-4e7" worked.  Subparsers
    are built with the class of their parent, so they inherit this.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?[0-9]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdimer",
        description="Coupled-doublet dimer simulations: free, driven and "
        "measurement-conditioned evolution with entanglement readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario and write a CSV")
    run_p.add_argument("--scenario", help="preset name (see the catalog command)")
    run_p.add_argument("--config", help="JSON run-config file (overrides other flags)")
    run_p.add_argument("--out", help="output CSV path")
    run_p.add_argument("--save-config", help="also write the resolved config as JSON")
    run_p.add_argument("--rhs", choices=("derived", "published"), default=None)
    run_p.add_argument("--initial", help="initial state name for custom runs")
    run_p.add_argument("--horizon", type=time_quantity, help="run length (s, ns, us...)")
    run_p.add_argument("--samples", type=int, help="number of sample times")
    run_p.add_argument("--observables", help="comma-separated column list")
    run_p.add_argument("--omega0", type=rate_quantity, help="doublet splitting (s^-1)")
    run_p.add_argument("--J", type=rate_quantity, help="exchange coupling (s^-1)")
    run_p.add_argument("--Omega", type=rate_quantity, help="drive strength (s^-1)")
    run_p.add_argument("--gamma", type=rate_quantity, help="dephasing rate (s^-1)")
    run_p.add_argument("--delta-l", type=rate_quantity, help="drive detuning (s^-1)")
    run_p.add_argument("--driven", action="store_const", const=True, default=None,
                       help="interpret the run in the rotating frame of a drive")
    run_p.add_argument("--sweep", help="<param>=<v1,v2,...> one CSV per value + index")
    run_p.set_defaults(func=cmd_run)

    cat_p = sub.add_parser("catalog", help="list scenario presets")
    cat_p.set_defaults(func=cmd_catalog)

    zeno_p = sub.add_parser("zeno", help="repeated-projection survival")
    zeno_p.add_argument("--tau", type=time_quantity, required=True,
                        help="measurement interval (s, ns, ps...)")
    group = zeno_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--T", type=time_quantity, help="total duration (s, ns...)")
    group.add_argument("--N", type=int, help="number of measurements")
    zeno_p.add_argument("--J", type=rate_quantity, default=4.0e9)
    zeno_p.add_argument("--gamma", type=rate_quantity, default=0.0)
    zeno_p.add_argument("--omega0", type=rate_quantity, default=1.5e11)
    zeno_p.add_argument("--out", help="optional CSV of the survival curve")
    zeno_p.set_defaults(func=cmd_zeno)

    audit_p = sub.add_parser("audit", help="published-vs-derived consistency report")
    audit_p.add_argument("--initial", default="e1g2")
    audit_p.add_argument("--horizon", type=time_quantity, default=5e-9)
    audit_p.add_argument("--omega0", type=rate_quantity, default=1.5e11)
    audit_p.add_argument("--J", type=rate_quantity, default=4.0e9)
    audit_p.add_argument("--gamma", type=rate_quantity, default=1.0e6)
    audit_p.add_argument("--samples", type=int, default=501)
    audit_p.set_defaults(func=cmd_audit)

    const_p = sub.add_parser("constants", help="derived rates from molecular inputs")
    const_p.add_argument("--d0", type=dipole_quantity, required=True,
                         help="permanent dipole (D or C*m)")
    const_p.add_argument("--r", type=length_quantity, required=True,
                         help="intermolecular distance (m, nm...)")
    const_p.add_argument("--mu-eg", type=dipole_quantity, default=None,
                         help="transition dipole (defaults to d0)")
    const_p.add_argument("--omega0", type=rate_quantity, default=1.5e11)
    const_p.add_argument("--E-l", type=field_quantity, default=None,
                         help="drive amplitude (V/m)")
    const_p.set_defaults(func=cmd_constants)

    plot_p = sub.add_parser("plot", help="emit a gnuplot script from CSVs")
    plot_p.add_argument("--figure", required=True, help="figure id, e.g. fig3a")
    plot_p.add_argument("--csv", nargs="+", required=True, help="input CSV path(s)")
    plot_p.add_argument("--out", required=True, help="script path to write")
    plot_p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
