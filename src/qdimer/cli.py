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
import contextlib
import dataclasses
import errno
import functools
import gc
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .liouville import _VARIANTS, SystemParams, _check_positive, _is_integer, _shown
from .scenarios import NH3, ObservableTable, Scenario, ZenoSweep, _run_blocks, catalog
from .states import blocks, named_state, pure_density
from .zeno import _intervals, analytic_survival, run_zeno

__all__ = ["RunConfig", "emit_csv", "entry", "main"]


# ---------------------------------------------------------------------------
# unit parsing (the single conversion boundary)

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_LENGTH_UNITS = {"m": 1.0, "um": 1e-6, "nm": 1e-9, "pm": 1e-12}
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
    from .physics import DEBYE

    return parse_quantity(text, {"D": DEBYE, "C*m": 1.0, "Cm": 1.0}, "dipole")


def field_quantity(text: str) -> float:
    return parse_quantity(text, _FIELD_UNITS, "field")


def rate_quantity(text: str) -> float:
    return parse_quantity(text, _RATE_UNITS, "rate")


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in text.split(",") if n.strip())


# ---------------------------------------------------------------------------
# run configuration

# each sweepable field with the unit parser of its own flag
_SWEEP_FIELDS = {
    **dict.fromkeys(("omega0", "J", "Omega", "gamma", "delta_l"), rate_quantity),
    "horizon": time_quantity,
}
_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Flat, JSON-serializable description of one `run` invocation.

    Either names a preset (optional fields then act as overrides) or is
    fully custom (initial + J + horizon required, a swept field counting as
    set).  None means "not set".  Building a config resolves each of its
    points once, so a bad value raises here; the run values are checked by
    the SystemParams and Scenario, or the ZenoSweep, they set.
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
        if not _is_integer(self.schema_version) or self.schema_version != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {_shown(self.schema_version)} "
                f"(this build reads version {_SCHEMA_VERSION})"
            )
        if not isinstance(self.out, str) or not self.out:
            raise ValueError(f"out must name an output path, got {_shown(self.out)}")
        for name in ("scenario", "sweep_param"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null, got {_shown(value)}")
        if not isinstance(self.sweep_values, tuple):
            raise ValueError(f"sweep_values must be a list, got {_shown(self.sweep_values)}")
        if self.rhs not in _VARIANTS:
            raise ValueError(f"rhs must be 'derived' or 'published', got {_shown(self.rhs)}")
        if self.scenario is None and self.initial is None:
            raise ValueError("config needs a scenario name or an initial state")
        if self.sweep_param is None:
            if self.sweep_values:
                raise ValueError("sweep_values given without a sweep_param")
        elif self.sweep_param not in _SWEEP_FIELDS:
            raise ValueError(f"sweep parameter must be one of {', '.join(_SWEEP_FIELDS)}")
        elif not self.sweep_values:
            raise ValueError("sweep needs at least one value")
        elif any(c in self.out for c in ',"\r\n'):
            # each point's path is a field of the unquoted index CSV
            raise ValueError(f"a sweep's out path may not hold a comma, a quote or a line "
                             f"break, got {self.out!r}")
        self.points  # resolves, and so checks, every point and its path

    @functools.cached_property
    def points(self) -> list[tuple[float | None, Scenario | ZenoSweep, str]]:
        """Each point's swept value (None without a sweep), run and CSV path."""
        if self.sweep_param is None:
            return [(None, _scenario_from_config(self), self.out)]
        points = []
        first: dict[str, float] = {}
        for value in self.sweep_values:
            scenario = _scenario_from_config(self, value)
            path = f"{self.out.removesuffix('.csv')}.{self.sweep_param}{value:g}.csv"
            if path in first:
                # {value:g} keeps 6 significant digits, so close values share a name
                raise ValueError(
                    f"sweep values {first[path]!r} and {value!r} would both write {path}")
            first[path] = value
            points.append((value, scenario, path))
        return points

    def to_json(self) -> str:
        import json

        # json writes the tuple fields as arrays
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**_config_fields(text))


def _config_fields(text: str) -> dict[str, object]:
    """The RunConfig fields a JSON config sets, as the types the fields hold."""
    import json

    try:
        doc = json.loads(text, parse_int=_json_int)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ValueError("config is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    # schema-1 files written while the propagator was adaptive carry its
    # tolerances; exact propagation meets any tolerance, so they are dropped
    doc.pop("rel_tol", None)
    doc.pop("abs_tol", None)
    unknown = sorted(set(doc) - set(_field_names(RunConfig)))
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    # JSON arrays become the tuples the fields hold; anything else is refused
    for name in ("observables", "sweep_values"):
        if isinstance(doc.get(name), list):
            doc[name] = tuple(doc[name])
    return doc


def _json_int(literal: str) -> int:
    """int(literal); past the interpreter's digit limit, which int() refuses, the
    leading digits times a power of ten: every field refuses a value that far past
    its range, and _shown shows it by the same leading digits."""
    try:
        return int(literal)
    except ValueError:
        return int(literal[:20]) * 10 ** (len(literal) - 20)


def _field_names(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _set_fields(source: object, names: Iterable[str]) -> dict[str, object]:
    """The attributes of `source` among `names` that are present and not None."""
    return {n: getattr(source, n) for n in names if getattr(source, n, None) is not None}


def _scenario_from_config(cfg: RunConfig, value: float | None = None) -> Scenario | ZenoSweep:
    """The named preset, or the custom template, with the set fields and `value` applied."""
    point = _set_fields(cfg, _field_names(RunConfig))
    if cfg.sweep_param is not None:
        point[cfg.sweep_param] = value  # even a null, which its field then refuses
    if cfg.scenario is not None:
        sc = next((s for s in catalog() if s.name == cfg.scenario), None)
        if sc is None:
            raise ValueError(
                f"unknown scenario {cfg.scenario!r}; the catalog command lists presets"
            )
    elif not point.keys() >= {"initial", "J", "horizon"}:
        raise ValueError("custom runs need --initial, --J and --horizon (or --scenario)")
    else:
        sc = Scenario(
            name="custom",
            initial=point["initial"],
            params=replace(NH3, J=point["J"], gamma=0.0),
            horizon=point["horizon"],
            observables=("rho11", "rho22", "rho33", "rho44", "C"),
        )
    # each set field goes to the SystemParams or Scenario field of the same name
    params = {n: point[n] for n in _field_names(SystemParams) if n in point}
    fields = {n: point[n] for n in _field_names(Scenario) if n in point}
    if isinstance(sc, ZenoSweep):
        # the sweep holds only what its chains read, and they run the derived generator
        run = {**params, **fields}
        ignored = [n for n in _field_names(RunConfig) if n in run and n not in _field_names(sc)]
        if cfg.rhs != "derived":
            ignored.append("rhs")
        if ignored:
            raise ValueError(f"the {sc.name} preset takes no "
                             + ", ".join(f"--{n.replace('_', '-')}" for n in ignored))
        return replace(sc, **run)
    sc = replace(sc, params=replace(sc.params, **params), **fields)
    if sc.params.driven and "omega0" in point:
        raise ValueError("a driven run's rotating frame reads delta_l, so it takes no omega0")
    return sc


# ---------------------------------------------------------------------------
# output emission

def emit_csv(table: ObservableTable, path: str) -> None:
    """Deterministic CSV: header `t_s,<names...>`, 17-significant-digit
    scientific notation, LF newlines, UTF-8 bytes.

    Rows are formatted and written a block at a time, so the text of the
    whole file is never held in memory.  Each cell is the text of
    ``'%.16e' % x``, which `csvtext` writes for a whole block in numpy.
    """
    rows = ((table.times[block], table.data[block]) for block in blocks(table.times.size))
    _write_csv(path, table.names, rows)


def _write_csv(path: str, names: Sequence[str],
               rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
    """The CSV of `emit_csv` from blocks of (times, data), each written as it comes."""
    from .csvtext import csv_rows  # loaded only by the commands that write a CSV

    with open(path, "wb") as fh:
        fh.write(("t_s," + ",".join(names) + "\n").encode("utf-8"))
        for times, data in rows:
            fh.write(csv_rows(np.column_stack([times, data])))


def _temporary(path: str) -> tuple[str, str]:
    """A new empty file beside the target of `path` (links resolved), named
    `<target>.<n>.tmp` with the first n no file holds, and that target.

    The target's name is cut on a character boundary, as far as needed for
    the temporary name to fit the directory's name limit; a name past that
    limit is refused, as no rename could make it.  The file gets the mode a
    new file of `path` would get, and an error names `path`, as opening
    `path` itself would.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    try:
        name_max = os.pathconf(directory, "PC_NAME_MAX")  # -1: no limit
        if 0 < name_max < len(os.fsencode(name)):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG))
        for n in itertools.count():
            cut = name
            while 0 < name_max < len(os.fsencode(f"{cut}.{n}.tmp")):
                cut = cut[:-1]
            temp = os.path.join(directory, f"{cut}.{n}.tmp")
            try:
                os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except FileExistsError:
                continue
            return temp, target
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None


def _refuse_overwrite(what: str, path: str, others: Iterable[str], kind: str) -> None:
    """Refuse an output `path` that is, after links are resolved, one of `others`."""
    target = os.path.realpath(path)
    for other in others:
        if os.path.realpath(other) == target:
            raise ValueError(f"{what} {path} would overwrite the {kind} {other}")


# ---------------------------------------------------------------------------
# subcommands

def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        # of the run flags, only --out and --rhs apply over a config file
        dropped = set(_set_fields(args, [*_field_names(RunConfig), "sweep"])) - {"out", "rhs"}
        if dropped:
            flags = ", ".join(f"--{n.replace('_', '-')}" for n in sorted(dropped))
            raise ValueError(f"--config sets the run, so it takes no {flags} "
                             "(only --out, --rhs and --save-config)")
        with open(args.config, encoding="utf-8") as fh:
            fields = _config_fields(fh.read())
        fields.update(_set_fields(args, ("out", "rhs")))
    else:
        # the run flags' dests are the config's field names; an unset flag is None
        fields = _set_fields(args, _field_names(RunConfig))
    if "out" not in fields:
        raise ValueError("--out is required unless a --config provides it")
    if args.config is None and args.sweep is not None:
        param, eq, tail = map(str.strip, args.sweep.partition("="))
        if not eq:
            raise ValueError("--sweep expects <param>=<v1,v2,...>")
        # values of an unknown parameter stay text; RunConfig refuses the parameter
        parse = _SWEEP_FIELDS.get(param, str)
        try:
            values = tuple(parse(v) for v in tail.split(",") if v.strip())
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"bad sweep values in {args.sweep!r}: {err}") from err
        fields.update(sweep_param=param, sweep_values=values)
    return RunConfig(**fields)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    outputs = [path for _, _, path in cfg.points]
    index_path = None
    if cfg.sweep_param is not None:
        index_path = cfg.out.removesuffix(".csv") + ".index.csv"
        outputs.append(index_path)
    if args.save_config is not None:
        _refuse_overwrite("--save-config", args.save_config, outputs, "output")
    if args.config is not None:
        for path in outputs:
            _refuse_overwrite("output", path, [args.config], "--config file")
    # each point is written to a temporary file as it is walked, and the files
    # replace their targets only once every point has succeeded, so a point that
    # fails, even in its switch-off trigger search, leaves no file behind
    temps: list[tuple[str, str]] = []
    shapes = []
    try:
        for value, scenario, path in cfg.points:
            temps.append(_temporary(path))
            temp = temps[-1][0]
            try:
                if isinstance(scenario, ZenoSweep):
                    table = scenario.table()  # built whole
                    emit_csv(table, temp)
                    shapes.append(table.data.shape)
                else:
                    _write_csv(temp, scenario.observables, _run_blocks(scenario, cfg.rhs))
                    shapes.append((scenario.samples, len(scenario.observables)))
            except ValueError as err:
                if cfg.sweep_param is None:
                    raise
                raise ValueError(f"{cfg.sweep_param}={value:g}: {err}") from err
        if args.save_config is not None:
            with open(args.save_config, "w", encoding="utf-8") as fh:
                fh.write(cfg.to_json())
            print(f"wrote {args.save_config}")
        for (_, _, path), (rows, columns) in zip(cfg.points, shapes):
            try:
                os.replace(*temps[0])
            except OSError as err:
                raise OSError(err.errno, err.strerror, path) from None
            del temps[0]  # renamed: a file of its name now is another run's
            if cfg.sweep_param is None:
                print(f"wrote {path} ({rows} rows, {columns} columns)")
            else:
                print(f"wrote {path}")
    finally:
        for temp, _ in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
    if index_path is not None:
        lines = ["param,value,path"]
        lines += [f"{cfg.sweep_param},{value:.16e},{path}" for value, _, path in cfg.points]
        with open(index_path, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        print(f"wrote {index_path}")
    return 0


def describe_scenario(sc: Scenario | ZenoSweep) -> str:
    if isinstance(sc, ZenoSweep):
        return (f"{sc.name}: J={sc.J:g} gamma={sc.gamma:g} horizon={sc.horizon:g} zeno_taus="
                + ",".join(f"{t:g}" for t in sc.zeno_taus))
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
        _check_positive("--tau", args.tau)
        _check_positive("--T", args.T)
        n = _intervals(args.T, args.tau)
        if n is None:
            raise ValueError(f"--T {args.T:g} s is not a whole number of tau intervals")
    survival = run_zeno(args.tau, n, args.J, args.gamma)
    exact, gauss = analytic_survival(args.J, args.tau, n)
    # the CSV is written before the first line is printed, so a run whose file
    # cannot be written prints nothing but its error
    if args.out is not None:
        times = np.arange(n + 1, dtype=float)
        times *= args.tau  # in place, so the curve and its times are all the run holds
        emit_csv(ObservableTable(times, ("survival",), survival[:, None]), args.out)
    print(f"tau_s = {args.tau:.6e}")
    print(f"n_measurements = {n}")
    print(f"total_time_s = {n * args.tau:.6e}")
    print(f"survival = {survival[-1]:.6e}")
    print(f"survival_exact_gamma0 = {exact:.6e}")
    print(f"survival_gaussian = {gauss:.6e}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .audit import ConsistencyReport, consistency_report

    rho0 = pure_density(named_state(args.initial))
    report = consistency_report(args.J, args.gamma, rho0, args.horizon, samples=args.samples)
    print(f"initial = {args.initial}")
    print(f"horizon_s = {args.horizon:.6e}")
    for name in _field_names(ConsistencyReport):
        value = getattr(report, name)
        print(f"{name} = {value}" if _is_integer(value) else f"{name} = {value:.6e}")
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    from .physics import dipole_coupling, einstein_a, rabi_frequency

    mu_eg = args.d0 if args.mu_eg is None else args.mu_eg
    # every rate is computed, and so checked, before the first line is printed
    rates = {"J": dipole_coupling(args.d0, args.r)}
    _check_positive("mu_eg", mu_eg)
    rates["einstein_a"] = einstein_a(mu_eg, args.omega0)
    if args.E_l is not None:
        rates["Omega"] = rabi_frequency(mu_eg, args.E_l)
    for name, value in rates.items():
        print(f"{name} = {value:.6e} s^-1")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    from .figures import emit_plot_script

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
    run_p.add_argument("--config", help="JSON run-config file; only --out, --rhs and "
                       "--save-config may be given with it")
    run_p.add_argument("--out", help="output CSV path")
    run_p.add_argument("--save-config", help="also write the resolved config as JSON")
    run_p.add_argument("--rhs", choices=_VARIANTS, default=None)
    run_p.add_argument("--initial", help="initial state name for custom runs")
    run_p.add_argument("--horizon", type=_SWEEP_FIELDS["horizon"], help="run length (s, ns, us...)")
    run_p.add_argument("--samples", type=int, help="number of sample times")
    run_p.add_argument("--observables", type=_name_list, help="comma-separated column list")
    run_p.add_argument("--omega0", type=_SWEEP_FIELDS["omega0"], help="doublet splitting (s^-1)")
    run_p.add_argument("--J", type=_SWEEP_FIELDS["J"], help="exchange coupling (s^-1)")
    run_p.add_argument("--Omega", type=_SWEEP_FIELDS["Omega"], help="drive strength (s^-1)")
    run_p.add_argument("--gamma", type=_SWEEP_FIELDS["gamma"], help="dephasing rate (s^-1)")
    run_p.add_argument("--delta-l", type=_SWEEP_FIELDS["delta_l"], help="drive detuning (s^-1)")
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
    zeno_p.add_argument("--J", type=rate_quantity, default=NH3.J)
    zeno_p.add_argument("--gamma", type=rate_quantity, default=0.0)
    zeno_p.add_argument("--out", help="optional CSV of the survival curve")
    zeno_p.set_defaults(func=cmd_zeno)

    audit_p = sub.add_parser("audit", help="published-vs-derived consistency report")
    audit_p.add_argument("--initial", default="e1g2")
    audit_p.add_argument("--horizon", type=time_quantity, default=5e-9)
    audit_p.add_argument("--J", type=rate_quantity, default=NH3.J)
    audit_p.add_argument("--gamma", type=rate_quantity, default=NH3.gamma)
    audit_p.add_argument("--samples", type=int, default=501)
    audit_p.set_defaults(func=cmd_audit)

    const_p = sub.add_parser("constants", help="derived rates from molecular inputs")
    const_p.add_argument("--d0", type=dipole_quantity, required=True,
                         help="permanent dipole (D or C*m)")
    const_p.add_argument("--r", type=length_quantity, required=True,
                         help="intermolecular distance (m, nm...)")
    const_p.add_argument("--mu-eg", type=dipole_quantity, default=None,
                         help="transition dipole (defaults to d0)")
    const_p.add_argument("--omega0", type=rate_quantity, default=NH3.omega0)
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


def entry() -> None:
    """The process entry of the `qdimer` script and of `python -m qdimer.cli`:
    `main` on the command line, then exit with its code.

    Every output file is closed and every stream written before `main`
    returns, so the collector is frozen first: the interpreter's shutdown
    collections then skip the ~21,500 objects numpy and the package leave
    tracked, which saved 20-25 ms a process on a 2-vCPU x86-64 host.
    Shutdown still runs atexit handlers, flushes stdio and frees objects by
    reference count.  `main` leaves the collector alone, for tests and
    library callers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
