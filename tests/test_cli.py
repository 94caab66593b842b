import argparse
import dataclasses
import gc
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qdimer
import qdimer.csvtext  # noqa: F401 -- compiled here, with cli, not inside a traced test
from qdimer import cli, figures, scenarios, states
from qdimer.audit import ConsistencyReport
from qdimer.cli import (
    RunConfig,
    build_parser,
    dipole_quantity,
    emit_csv,
    field_quantity,
    length_quantity,
    main,
    parse_quantity,
    rate_quantity,
    time_quantity,
)
from qdimer.figures import emit_plot_script
from qdimer.liouville import MAX_SAMPLES
from qdimer.physics import DEBYE
from qdimer.scenarios import OBSERVABLES, ObservableTable, catalog, run_scenario
from qdimer.states import BLOCK


# ---------------------------------------------------------------------------
# unit parsing

def test_time_units():
    one_ulp = pytest.approx(5e-6, rel=1e-15)
    assert time_quantity("1ns") == 1e-9
    assert time_quantity("0.01 ns") == pytest.approx(1e-11)
    assert time_quantity("5us") == one_ulp
    assert time_quantity("5µs") == one_ulp  # micro sign
    assert time_quantity("5μs") == one_ulp  # greek mu
    assert time_quantity("2.5ms") == pytest.approx(2.5e-3, rel=1e-15)
    assert time_quantity("3e-9") == 3e-9  # bare numbers are SI
    assert time_quantity("7ps") == pytest.approx(7e-12, rel=1e-15)


def test_other_units():
    assert length_quantity("10nm") == pytest.approx(1e-8, rel=1e-15)
    assert length_quantity("1um") == 1e-6
    assert dipole_quantity("1.46D") == pytest.approx(1.46 * DEBYE)
    assert dipole_quantity("1e-30C*m") == 1e-30
    assert field_quantity("1V/m") == 1.0
    assert field_quantity("2kV/m") == 2e3
    assert rate_quantity("4e9 s^-1") == 4e9
    assert rate_quantity("4e9 rad/s") == 4e9
    assert rate_quantity("1e6 1/s") == 1e6
    assert rate_quantity("0") == 0.0


def test_bad_quantities_rejected():
    for text in ("1 parsec", "fast", "", "1..2ns", "10 nm"):
        with pytest.raises(argparse.ArgumentTypeError):
            time_quantity(text)
    with pytest.raises(argparse.ArgumentTypeError, match="accepted"):
        parse_quantity("3 lightyears", {"m": 1.0}, "length")


def test_bad_unit_through_argparse_exits_2(capsys):
    assert main(["zeno", "--tau", "1bogus", "--N", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [
    ("--delta-l", "-4e7"),
    ("--delta-l", "-4E+7"),
    ("--delta-l", "-4e7 rad/s"),
    ("--delta-l", "-.4e8"),
    ("--delta-l", "-4000000e1"),
    ("--Omega", "-4e7"),  # rejected later, as a value, not as an option
    ("--horizon", "-1e-9"),
    ("--horizon", "-1ns"),
])
def test_negative_value_as_separate_argument(tmp_path, capsys, flag, value):
    # "--delta-l -4e7" once exited 2 with "expected one argument"
    sep, joined = tmp_path / "sep.csv", tmp_path / "joined.csv"
    base = ["run", "--scenario", "driven_detuned_s", "--samples", "11"]
    code_sep = main(base + ["--out", str(sep), flag, value])
    err_sep = capsys.readouterr().err.replace(str(sep), "OUT")
    code_joined = main(base + ["--out", str(joined), f"{flag}={value}"])
    err_joined = capsys.readouterr().err.replace(str(joined), "OUT")
    assert "expected one argument" not in err_sep
    assert (code_sep, err_sep) == (code_joined, err_joined)
    if code_joined == 0:
        assert sep.read_bytes() == joined.read_bytes()
    else:
        assert code_joined == 2 and not sep.exists()


@pytest.mark.parametrize("argv", [
    ["zeno", "--tau", "-1e-13", "--N", "10"],
    ["constants", "--d0", "1.46D", "--r", "10nm", "--E-l", "-1e3"],
])
def test_negative_value_reaches_every_subcommand(capsys, argv):
    flag, value = argv[-2:]
    separate = main(argv)
    out_sep = capsys.readouterr()
    joined = main(argv[:-2] + [f"{flag}={value}"])
    out_joined = capsys.readouterr()
    assert "expected one argument" not in out_sep.err
    assert (separate, out_sep.out, out_sep.err) == (joined, out_joined.out, out_joined.err)


@pytest.mark.parametrize("argv", [
    ["constants", "--d0", "1e400", "--r", "10nm"],
    ["zeno", "--tau", "1e-13", "--T", "1e400"],
    ["constants", "--d0", "1.46D", "--r", "10nm", "--E-l", "1e306MV/m"],
    ["zeno", "--tau", "nan", "--T", "1ns"],
    ["zeno", "--tau", "1e-13", "--T", "-Infinity ns"],
])
def test_non_finite_unit_flag_exits_2(capsys, argv):
    # 1e400 parses as inf: constants printed J = inf, zeno overflowed
    assert main(argv) == 2
    assert "not finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run configs

def test_config_json_round_trip():
    cfg = RunConfig(
        out="a.csv",
        scenario="free_eg",
        gamma=2e6,
        observables=("rho11", "C"),
        sweep_param="J",
        sweep_values=(1e9, 2e9),
    )
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    doc = json.loads(cfg.to_json())
    assert doc["schema_version"] == 1
    assert doc["observables"] == ["rho11", "C"]


# to_json's text for a preset with overrides and a sweep, and for a custom run
PRESET_SWEEP_JSON = """{
  "J": null,
  "Omega": null,
  "delta_l": null,
  "driven": null,
  "gamma": 2000000.0,
  "horizon": 1e-09,
  "initial": null,
  "observables": [
    "rho11",
    "C"
  ],
  "omega0": null,
  "out": "eg.csv",
  "rhs": "published",
  "samples": 21,
  "scenario": "free_eg",
  "schema_version": 1,
  "sweep_param": "J",
  "sweep_values": [
    1000000000.0,
    2500000000.0
  ]
}
"""
CUSTOM_JSON = """{
  "J": 4000000000.0,
  "Omega": 30000000.0,
  "delta_l": -40000000.0,
  "driven": true,
  "gamma": null,
  "horizon": 2e-07,
  "initial": "e1g2",
  "observables": null,
  "omega0": null,
  "out": "custom.csv",
  "rhs": "derived",
  "samples": 11,
  "scenario": null,
  "schema_version": 1,
  "sweep_param": null,
  "sweep_values": []
}
"""


def test_config_json_text_is_pinned():
    preset = RunConfig(out="eg.csv", scenario="free_eg", gamma=2e6, horizon=1e-9, samples=21,
                       observables=("rho11", "C"), rhs="published", sweep_param="J",
                       sweep_values=(1e9, 2.5e9))
    custom = RunConfig(out="custom.csv", initial="e1g2", J=4e9, delta_l=-4e7,
                       Omega=3e7, driven=True, horizon=2e-7, samples=11)
    assert preset.to_json() == PRESET_SWEEP_JSON
    assert custom.to_json() == CUSTOM_JSON
    assert RunConfig.from_json(PRESET_SWEEP_JSON) == preset
    assert RunConfig.from_json(CUSTOM_JSON) == custom


def test_config_validation():
    with pytest.raises(ValueError, match="output path"):
        RunConfig(out="", scenario="free_eg")
    with pytest.raises(ValueError, match="rhs"):
        RunConfig(out="a.csv", scenario="free_eg", rhs="guessed")
    with pytest.raises(ValueError, match="scenario name or an initial state"):
        RunConfig(out="a.csv")
    with pytest.raises(ValueError, match="sweep parameter"):
        RunConfig(out="a.csv", scenario="free_eg", sweep_param="temperature",
                  sweep_values=(1.0,))
    with pytest.raises(ValueError, match="at least one value"):
        RunConfig(out="a.csv", scenario="free_eg", sweep_param="gamma")
    with pytest.raises(ValueError, match="sweep_param"):  # once ran a plain run
        RunConfig(out="a.csv", scenario="free_eg", sweep_values=(1e6,))
    with pytest.raises(ValueError, match="schema_version"):
        RunConfig(out="a.csv", scenario="free_eg", schema_version=2)
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_json('{"out": "a.csv", "scenario": "free_eg", "color": "red"}')


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_json_rejects_non_finite(text):
    with pytest.raises(ValueError, match="finite"):
        RunConfig.from_json('{"out": "a.csv", "scenario": "free_eg", "gamma": %s}' % text)
    with pytest.raises(ValueError, match="finite"):
        RunConfig.from_json(
            '{"out": "a.csv", "scenario": "free_eg", "sweep_param": "gamma", '
            '"sweep_values": [1.0, %s]}' % text
        )

    with pytest.raises(ValueError, match="samples must be an integer"):
        RunConfig.from_json('{"out": "a.csv", "scenario": "free_eg", "samples": %s}' % text)


@pytest.mark.parametrize("field, text", [
    ("driven", '"false"'), ("driven", "0"), ("observables", '"C"'),
    ("out", "7"), ("out", '""'),
    pytest.param("out", 'true, "sweep_param": "gamma", "sweep_values": [1e6]',
                 id="out-true-in-a-sweep"),
    ("scenario", '["free_eg"]'), ("initial", '["e1g2"]'), ("sweep_param", '["gamma"]'),
    ("observables", '[["C"]]'), ("observables", '["C", 1]'), ("observables", "[]"),
    ("sweep_values", "5"), ("sweep_values", "null"),
    pytest.param("sweep_values", "[1e6]", id="sweep_values-without-sweep_param"),
    ("samples", str(MAX_SAMPLES + 1)),
    # True == 1, so these once ran and were saved back as written
    ("schema_version", "true"), ("schema_version", "1.0"),
])
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, field, text):
    # "false" once ran free_eg in the rotating frame, and a string of
    # observables was split into one column name per character; a number for
    # out was opened as a file descriptor, and lists for the string fields
    # ended in tracebacks
    path = tmp_path / "bad.json"
    path.write_text('{"out": "%s", "scenario": "free_eg", "%s": %s}'
                    % (tmp_path / "x.csv", field, text))
    assert main(["run", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


# a config saved by --save-config while the propagator was adaptive
LEGACY_CONFIG = """{
  "J": 4000000000.0,
  "Omega": null,
  "abs_tol": 1e-12,
  "delta_l": null,
  "driven": null,
  "gamma": null,
  "horizon": 1e-09,
  "initial": "e1g2",
  "observables": null,
  "omega0": null,
  "out": "legacy.csv",
  "rel_tol": 1e-08,
  "rhs": "derived",
  "samples": 11,
  "scenario": null,
  "schema_version": 1,
  "sweep_param": null,
  "sweep_values": []
}
"""


def test_legacy_config_with_tolerances_loads(tmp_path, capsys):
    cfg = RunConfig.from_json(LEGACY_CONFIG)
    assert cfg == RunConfig(out="legacy.csv", initial="e1g2", J=4e9, horizon=1e-9,
                            samples=11)
    assert "rel_tol" not in cfg.to_json()
    path = tmp_path / "legacy.json"
    path.write_text(LEGACY_CONFIG)
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(run_args(out2)) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# csv emission

def small_table():
    return ObservableTable(
        times=np.array([0.0, 1e-9]),
        names=("a", "b"),
        data=np.array([[1.0, 0.25], [1.0 / 3.0, -2e-16]]),
    )


def test_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(small_table(), str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "t_s,a,b"
    assert lines[1].startswith("0.0000000000000000e+00,1.0000000000000000e+00,")
    assert len(lines) == 3


def per_cell_csv(table):
    # the per-cell formatting the block writer replaced
    lines = ["t_s," + ",".join(table.names)]
    for k in range(table.times.size):
        cells = [f"{table.times[k]:.16e}"]
        cells += [f"{value:.16e}" for value in table.data[k]]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


# row counts at the current block's edges, and at the edges of 512-state
# blocks (511..513, 1031), which also lie on block edges of 256 states
@pytest.mark.parametrize("rows", sorted(
    {1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 511, 512, 513, 1031}
))
def test_csv_matches_per_cell_formatting(tmp_path, rows):
    rng = np.random.default_rng(rows)
    data = rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-300, 300, size=(rows, 4))
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                -5e-324, 0.0, 1.0 / 3.0, 2.2250738585072014e-308]
    flat = data.ravel()
    flat[: min(len(extremes), flat.size)] = extremes[: flat.size]
    flat[-1] = -0.0
    table = ObservableTable(
        times=np.linspace(0.0, 1e-9, rows), names=("a", "b", "c", "d"),
        data=data,
    )
    path = tmp_path / "t.csv"
    emit_csv(table, str(path))
    assert path.read_bytes() == per_cell_csv(table)


def test_csv_writer_holds_one_block_of_text(tmp_path):
    # the formatted text of one block is all the writer holds: about 130 KiB
    # traced at 256-state blocks on free_LL's 5001 x 6 table, 250 at 512
    table = run_scenario(next(s for s in catalog() if s.name == "free_LL"))
    tracemalloc.start()
    try:
        emit_csv(table, str(tmp_path / "t.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 192 * 1024, peak / 1024


def test_csv_round_trips_doubles_exactly(tmp_path):
    path = tmp_path / "t.csv"
    table = small_table()
    emit_csv(table, str(path))
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], table.times)
    assert np.array_equal(back[:, 1:], table.data)


# ---------------------------------------------------------------------------
# plot scripts

def test_plot_script_contents(tmp_path):
    csv_path = tmp_path / "swap.csv"
    table = ObservableTable(
        times=np.linspace(0.0, 1e-9, 3),
        names=("C", "rho_ff"),
        data=np.zeros((3, 2)),
    )
    emit_csv(table, str(csv_path))
    script = tmp_path / "fig.gp"
    emit_plot_script([str(csv_path)], "fig3a", str(script))
    text = script.read_text()
    assert 'set datafile separator ","' in text
    assert "noenhanced" in text
    assert f'"{csv_path}" using ($1*1e+09):2 with lines title "C"' in text
    assert f'"{csv_path}" using ($1*1e+09):3 with lines title "rho_ff"' in text

    # two inputs get per-file labels
    second = tmp_path / "other.csv"
    emit_csv(table, str(second))
    emit_plot_script([str(csv_path), str(second)], "fig3a", str(script))
    assert 'title "C [swap]"' in script.read_text()


def test_plot_script_bytes_are_pinned(tmp_path, monkeypatch):
    # spaces and single quotes stay in the double-quoted strings as they are
    monkeypatch.chdir(tmp_path)
    table = ObservableTable(times=np.linspace(0.0, 1e-9, 3),
                            names=("C", "rho_ff"), data=np.zeros((3, 2)))
    emit_csv(table, "run 1.csv")
    emit_csv(table, "it's.csv")
    emit_plot_script(["run 1.csv", "it's.csv"], "fig3a", "fig.gp")
    assert (tmp_path / "fig.gp").read_bytes() == (
        b'# fig3a: free swap, one molecule excited\n'
        b'set datafile separator ","\n'
        b'set termoption noenhanced\n'
        b'set key top right\n'
        b'set xlabel "t (ns)"\n'
        b'set ylabel "population / concurrence"\n'
        b'plot \\\n'
        b'  "run 1.csv" using ($1*1e+09):2 with lines title "C [run 1]", \\\n'
        b'  "run 1.csv" using ($1*1e+09):3 with lines title "rho_ff [run 1]", \\\n'
        b'  "it\'s.csv" using ($1*1e+09):2 with lines title "C [it\'s]", \\\n'
        b'  "it\'s.csv" using ($1*1e+09):3 with lines title "rho_ff [it\'s]"\n'
    )


@pytest.mark.parametrize("name", [
    'x"; system("touch PWNED"); "y.csv', "back\\slash.csv", "`touch PWNED`.csv",
    "new\nline.csv", "tab\t.csv",
], ids=["quote", "backslash", "backquote", "newline", "tab"])
def test_plot_refuses_a_csv_path_gnuplot_cannot_quote(tmp_path, capsys, monkeypatch, name):
    # such a path once went into the script as it was, so loading the script
    # could run a command
    monkeypatch.chdir(tmp_path)
    emit_csv(ObservableTable(times=np.array([0.0, 1e-9]), names=("C",),
                             data=np.zeros((2, 1))), name)
    assert main(["plot", "--figure", "fig5b", "--csv", name, "--out", "s.gp"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: CSV path {name!r} has a quote, backslash, backquote or control "
        "character, which a gnuplot script cannot hold\n"))
    assert not (tmp_path / "s.gp").exists()


def test_plot_errors(tmp_path):
    csv_path = tmp_path / "c.csv"
    emit_csv(small_table(), str(csv_path))
    with pytest.raises(ValueError, match="unknown figure id"):
        emit_plot_script([str(csv_path)], "fig99", str(tmp_path / "s.gp"))
    with pytest.raises(ValueError, match="no column"):
        emit_plot_script([str(csv_path)], "fig3a", str(tmp_path / "s.gp"))
    assert main(["plot", "--figure", "fig3a", "--csv", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "s.gp")]) == 4
    assert main(["plot", "--figure", "fig99", "--csv", str(csv_path),
                 "--out", str(tmp_path / "s.gp")]) == 2


def test_plot_reads_each_csv_header_once(tmp_path, monkeypatch):
    # each figure column once reopened its CSV: fig4a opened each input 5 times
    table = ObservableTable(times=np.linspace(0.0, 1e-9, 3),
                            names=("rho_pp", "rho_qq", "rho_ss", "rho_aa", "C"),
                            data=np.zeros((3, 5)))
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for path in paths:
        emit_csv(table, path)
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(figures, "open", counted_open, raising=False)
    script = str(tmp_path / "fig.gp")
    emit_plot_script(paths, "fig4a", script)
    assert sorted(opened) == sorted([*paths, script])
    assert ':6 with lines title "C [b]"' in (tmp_path / "fig.gp").read_text()


def test_plot_missing_column_message_is_bounded(tmp_path, capsys):
    # the whole first line once went into the message: 200 kB of stderr for this file
    csv_path = tmp_path / "wide.csv"
    names = [f"col{i}" for i in range(30000)]
    csv_path.write_text(",".join(names) + "\n")
    script = tmp_path / "s.gp"
    assert main(["plot", "--figure", "fig5b", "--csv", str(csv_path), "--out", str(script)]) == 2
    found = ", ".join(names)[:200] + "…"
    assert capsys.readouterr() == ("", f"error: {csv_path} has no column 'C' (found {found})\n")
    assert not script.exists()
    # a header of up to 200 characters is shown whole
    emit_csv(small_table(), str(csv_path))
    assert main(["plot", "--figure", "fig5b", "--csv", str(csv_path), "--out", str(script)]) == 2
    assert capsys.readouterr().err == f"error: {csv_path} has no column 'C' (found t_s, a, b)\n"


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_plot_out_onto_an_input_csv_exits_2(tmp_path, capsys, link):
    # the script once replaced the data it plots
    csv_path = tmp_path / "e.csv"
    assert main(["run", "--scenario", "free_eg", "--samples", "11", "--out", str(csv_path)]) == 0
    data = csv_path.read_bytes()
    out = csv_path
    if link:
        out = tmp_path / "link.gp"
        out.symlink_to(csv_path)
    capsys.readouterr()
    assert main(["plot", "--figure", "fig3a", "--csv", str(csv_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: script path {out} would overwrite the input CSV {csv_path}\n")
    assert csv_path.read_bytes() == data


# ---------------------------------------------------------------------------
# run subcommand

def run_args(out, *extra):
    return ["run", "--out", str(out), "--initial", "e1g2", "--J", "4e9",
            "--horizon", "1ns", "--samples", "11", *extra]


def test_custom_run_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "free.csv"
    assert main(run_args(out)) == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,rho11,rho22,rho33,rho44,C"
    assert len(lines) == 12
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    t = data[:, 0]
    assert np.allclose(t, np.linspace(0.0, 1e-9, 11))
    # gamma defaults to zero, so the swap is the pure cos^2 exchange
    assert np.max(np.abs(data[:, 3] - np.cos(4e9 * t) ** 2)) < 1e-8
    assert data[0, 3] == 1.0


def test_runs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(run_args(a)) == 0
    assert main(run_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_custom_run_with_a_presets_inputs_matches_the_preset(tmp_path, capsys):
    preset, custom = tmp_path / "preset.csv", tmp_path / "custom.csv"
    assert main(["run", "--scenario", "free_eg", "--horizon", "1ns", "--samples", "21",
                 "--out", str(preset)]) == 0
    assert main(["run", "--initial", "e1g2", "--J", "4e9", "--gamma", "1e6",
                 "--omega0", "1.5e11",
                 "--observables", "rho11,rho22,rho33,rho44,rho_ff,rho_kk,C",
                 "--horizon", "1ns", "--samples", "21", "--out", str(custom)]) == 0
    capsys.readouterr()
    assert preset.read_bytes() == custom.read_bytes()


@pytest.mark.parametrize("flags", [
    ["--initial", "s"], ["--samples", "5"], ["--observables", "C"],
    ["--initial", "s", "--samples", "5", "--observables", "C"],
    ["--rhs", "published"],
    # the chain reads only J, gamma and the horizon
    ["--omega0", "1e9"], ["--delta-l", "1e9", "--driven"], ["--driven"],
    # a drive once reached SystemParams, which blamed it on the frame the sweep does not have
    ["--Omega", "1e7"],
])
def test_zeno_sweep_preset_rejects_the_fields_it_ignores(tmp_path, capsys, flags):
    # the sweep table keeps its own start, grid, columns and frame, so these
    # flags once ran the plain preset unchanged
    assert main(["run", "--scenario", "zeno_sweep", *flags, "--out", str(tmp_path / "z.csv"),
                 "--save-config", str(tmp_path / "z.json")]) == 2
    named = ", ".join(flag for flag in flags if flag.startswith("--"))
    assert capsys.readouterr() == ("", f"error: the zeno_sweep preset takes no {named}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, named", [
    (["--sweep", "omega0=1e9,2e9"], "--omega0"),
    (["--driven", "--sweep", "delta_l=1e9,2e9"], "--delta-l, --driven"),
    (["--sweep", "Omega=1e7,2e7"], "--Omega"),
], ids=["omega0", "delta_l", "Omega"])
def test_zeno_sweep_preset_rejects_a_sweep_of_a_field_it_ignores(tmp_path, capsys, flags,
                                                                  named):
    assert main(["run", "--scenario", "zeno_sweep", *flags,
                 "--out", str(tmp_path / "z.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: the zeno_sweep preset takes no {named}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, column", [
    (["--scenario", "driven_resonant", "--observables", "rho_pp,rho_qq"], "rho_pp"),
    (["--scenario", "switch_off", "--observables", "rho_ss,rho_qq"], "rho_qq"),
    (["--initial", "e1e2", "--J", "4e9", "--horizon", "1ns", "--driven", "--Omega", "1e7",
      "--observables", "rho_qq"], "rho_qq"),
], ids=["driven", "switch_off", "custom"])
def test_driven_run_refuses_a_column_of_the_lab_frame(tmp_path, capsys, flags, column):
    # a driven run once wrote its rotating-frame Re rho14 under the lab-frame column names
    assert main(["run", *flags, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: {column} reads Re rho14, whose phase turns in "
                                       "the rotating frame of a driven run; only a free run "
                                       "records it\n")
    assert list(tmp_path.iterdir()) == []


def test_zeno_sweep_config_rejects_samples(tmp_path, capsys):
    path = tmp_path / "zeno.json"
    # the sweep table runs the derived generator whatever rhs says, and its
    # chain reads neither the splitting nor the frame
    for field, value in [("samples", "5"), ("rhs", '"published"'), ("omega0", "1e9"),
                         ("delta_l", "1e9"), ("driven", "true"), ("driven", "false"),
                         ("Omega", "1e7")]:
        path.write_text('{"out": "%s", "scenario": "zeno_sweep", "%s": %s}'
                        % (tmp_path / "z.csv", field, value))
        assert main(["run", "--config", str(path)]) == 2
        flag = "--" + field.replace("_", "-")
        assert capsys.readouterr().err == f"error: the zeno_sweep preset takes no {flag}\n"
        assert list(tmp_path.iterdir()) == [path]


def test_config_without_out_takes_the_out_flag(tmp_path, capsys):
    # a config without "out" once ended in a TypeError even with --out given
    bare, full = tmp_path / "bare.json", tmp_path / "full.json"
    bare.write_text('{"scenario": "free_eg", "samples": 5}')
    full.write_text('{"scenario": "free_eg", "samples": 5, "out": "%s"}' % (tmp_path / "b.csv"))
    assert main(["run", "--config", str(bare), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["run", "--config", str(full)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    capsys.readouterr()
    assert main(["run", "--config", str(bare)]) == 2
    assert "--out is required unless a --config provides it" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.csv", "b.csv", "bare.json", "full.json"]


def test_config_refuses_the_run_flags_it_would_drop(tmp_path, capsys):
    # every run flag but --out and --rhs was once dropped without a word
    # under --config: this call exited 0 and wrote one 5-row CSV, no sweep
    path = tmp_path / "c.json"
    path.write_text('{"scenario": "free_LL", "samples": 5, "out": "%s"}' % (tmp_path / "c.csv"))
    assert main(["run", "--config", str(path), "--sweep", "gamma=1e6,2e6", "--samples", "7"]) == 2
    err = capsys.readouterr().err
    assert "--sweep" in err and "--samples" in err
    for flag in (["--scenario", "free_eg"], ["--initial", "s"], ["--horizon", "1ns"],
                 ["--observables", "C"], ["--omega0", "1e11"], ["--J", "1e9"],
                 ["--Omega", "1e7"], ["--gamma", "0"], ["--delta-l", "-4e7"], ["--driven"]):
        assert main(["run", "--config", str(path), *flag]) == 2
        assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
    # --out, --rhs and --save-config still apply over the file
    out, saved = tmp_path / "o.csv", tmp_path / "saved.json"
    assert main(["run", "--config", str(path), "--out", str(out), "--rhs", "published",
                 "--save-config", str(saved)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 6
    assert RunConfig.from_json(saved.read_text()).rhs == "published"


def test_run_flags_are_the_config_fields():
    # flags reach RunConfig, and through it SystemParams and Scenario, by
    # name; a flag whose dest is not a field would be dropped unchecked
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices["run"]._actions} - {"help"}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert dests - {"config", "save_config", "sweep"} == (
        fields - {"sweep_param", "sweep_values", "schema_version"})


def test_preset_run_with_overrides(tmp_path, capsys):
    out = tmp_path / "eg.csv"
    code = main(["run", "--scenario", "free_eg", "--out", str(out),
                 "--horizon", "1ns", "--samples", "21"])
    assert code == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0]
    assert header == "t_s,rho11,rho22,rho33,rho44,rho_ff,rho_kk,C"
    assert len(out.read_text().splitlines()) == 22


def test_save_config_round_trip(tmp_path, capsys):
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    cfg_path = tmp_path / "run.json"
    assert main(run_args(out1, "--save-config", str(cfg_path))) == 0
    cfg = RunConfig.from_json(cfg_path.read_text())
    assert cfg.out == str(out1)
    assert cfg.J == 4e9 and cfg.horizon == 1e-9 and cfg.samples == 11
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("sweep, saved", [
    (None, "a.csv"),
    ("gamma=0,1e6", "a.gamma1e+06.csv"),
    ("gamma=0,1e6", "a.index.csv"),
], ids=["plain-run", "point-csv", "sweep-index"])
def test_save_config_onto_an_output_exits_2(tmp_path, capsys, monkeypatch, sweep, saved):
    # the config was once written and then replaced by the run's own output
    monkeypatch.chdir(tmp_path)
    sweep_args = [] if sweep is None else ["--sweep", sweep]
    assert main(run_args("a.csv", *sweep_args, "--save-config", f"./{saved}")) == 2
    assert capsys.readouterr() == (
        "", f"error: --save-config ./{saved} would overwrite the output {saved}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sweep, config", [
    (None, "a.csv"),
    ("gamma=0,1e6", "a.gamma1e+06.csv"),
    ("gamma=0,1e6", "a.index.csv"),
], ids=["plain-run", "point-csv", "sweep-index"])
def test_run_onto_its_config_exits_2(tmp_path, capsys, monkeypatch, sweep, config):
    # the run once wrote its CSV over the config it was read from
    monkeypatch.chdir(tmp_path)
    sweep_args = [] if sweep is None else ["--sweep", sweep]
    assert main(run_args("b.csv", *sweep_args, "--save-config", config)) == 0
    saved = (tmp_path / config).read_bytes()
    files = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["run", "--config", f"./{config}", "--out", "a.csv"]) == 2
    assert capsys.readouterr() == (
        "", f"error: output {config} would overwrite the --config file ./{config}\n")
    assert (tmp_path / config).read_bytes() == saved
    assert sorted(tmp_path.iterdir()) == files


def test_missing_out_rejected(capsys):
    assert main(["run", "--scenario", "free_eg"]) == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_scenario_rejected(tmp_path, capsys):
    assert main(["run", "--scenario", "mystery", "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 4
    capsys.readouterr()


def test_overflowing_run_exits_2_without_numpy_warnings(tmp_path):
    # the published generator's growing mode overflows the state of one 10 us
    # step; two RuntimeWarnings from the step product once preceded the error
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "r.csv"
    for extra, error in [
        (["--horizon", "10us", "--samples", "2"],
         "the state overflowed during integration (trace drift nan)"),
        # the preset's walk stops at its first block past the guard
        ([], "trace drifted by 1.851e+94 during integration"),
    ]:
        run = subprocess.run([sys.executable, "-m", "qdimer.cli", "run", "--scenario",
                              "driven_resonant", "--rhs", "published", *extra,
                              "--out", str(out)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert "RuntimeWarning" not in run.stderr
        assert run.stderr == f"error: {error}\n"
        assert not out.exists()


def peak_rss(argv, cwd):
    """Exit code, peak RSS (MB) and stderr of `python -m qdimer.cli *argv` in `cwd`.

    A small spawner of the standard library alone reads the run's peak RSS:
    Linux starts a child's ru_maxrss at the resident set of whatever spawned
    it, and this process holds numpy.
    """
    spawner = ("import os, subprocess, sys\n"
               "proc = subprocess.Popen(sys.argv[1:])\n"
               "_, status, usage = os.wait4(proc.pid, 0)\n"
               "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)\n")
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    run = subprocess.run([sys.executable, "-c", spawner, sys.executable, "-m", "qdimer.cli",
                          *argv], cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    code, peak_mb = run.stdout.split()[-2:]
    return int(code), float(peak_mb), run.stderr


@pytest.mark.parametrize("argv, line", [
    (["audit", "--gamma", "1e308"], "the dephasing rates of gamma=1e+308 s^-1 overflow"),
    (["zeno", "--tau", "1e6", "--T", "1e6", "--J", "1e-9", "--gamma", "1e308",
      "--out", "z.csv"], "the dephasing rates of gamma=1e+308 s^-1 overflow"),
    (["run", "--scenario", "free_eg", "--omega0", "1e308", "--out", "r.csv"],
     "the derived generator overflows at omega0=1e+308, J=4e+09, Omega=0, gamma=1e+06 s^-1"),
    (["run", "--scenario", "switch_off", "--Omega", "1e9", "--delta-l", "1e308",
      "--samples", "11", "--out", "r.csv"],
     "the derived generator overflows at delta_l=1e+308, J=4e+09, Omega=1e+09, "
     "gamma=1e+06 s^-1"),
    (["audit", "--horizon", "1e-308", "--J", "1e308", "--gamma", "1e-10"],
     "the published generator overflows at omega0=0, J=1e+308, Omega=0, gamma=1e-10 s^-1"),
], ids=["audit-gamma", "zeno-gamma", "run-omega0", "switch-off-delta-l", "audit-closure"])
def test_generator_that_overflows_is_refused_by_its_rates(tmp_path, monkeypatch, capsys,
                                                         argv, line):
    # rates that are finite one by one once gave a generator entry that
    # overflowed: numpy's two-line RuntimeWarning, then "generator times time
    # step is not finite" at the first step.  Any warning raises here.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert list(tmp_path.iterdir()) == []


def test_step_that_overflows_names_its_numbers(tmp_path, monkeypatch, capsys):
    # the generator is finite, but a step of 5e8 s times it is not; the line
    # once named neither.  Any warning raises here.
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "free_eg", "--omega0", "1e307", "--horizon", "1e12",
                 "--out", "r.csv"]) == 2
    assert capsys.readouterr() == ("", "error: generator times time step is not finite "
                                   "(1-norm of the generator 2e+307 s^-1, step 5e+08 s)\n")
    assert list(tmp_path.iterdir()) == []


def test_doomed_long_run_builds_no_grid_past_its_first_block(tmp_path):
    # the run fails in its first block; its 10**7 sample times alone are 80 MB,
    # and building them up front peaked the process at 106 MB of RSS
    out = tmp_path / "r.csv"
    code, peak_mb, err = peak_rss(["run", "--scenario", "free_eg", "--rhs", "published",
                                   "--samples", "10000000", "--out", str(out)], tmp_path)
    assert code == 2
    assert err == "error: population 1.000000e+00 above 1 beyond tolerance\n"
    assert peak_mb < 50.0
    assert list(tmp_path.iterdir()) == []


def test_sweep_peak_rss_does_not_grow_with_its_points(tmp_path):
    # every point's table was once held until the last point had run: three
    # points of 50,000 samples peaked 6.1 MB above one point, and three of
    # 300,000 at 86.5 MB against 49.7 for one
    peaks = {}
    for values in ("1e9", "1e9,2e9,3e9"):
        code, peaks[values], err = peak_rss(["run", "--scenario", "free_eg", "--samples",
                                             "50000", "--sweep", f"J={values}",
                                             "--out", "s.csv"], tmp_path)
        assert (code, err) == (0, "")
    assert peaks["1e9,2e9,3e9"] - peaks["1e9"] < 1.0, peaks


def test_switch_off_peak_rss_does_not_grow_with_its_samples(tmp_path):
    # the run's grid was once built whole, twice (to find the switch, and less
    # it for the free walk): 200,000 samples peaked about 3 MB above 3001
    peaks = {}
    for samples in ("3001", "200000"):
        code, peaks[samples], err = peak_rss(["run", "--scenario", "switch_off", "--samples",
                                              samples, "--out", "s.csv"], tmp_path)
        assert (code, err) == (0, "")
    assert peaks["200000"] - peaks["3001"] < 1.0, peaks


def test_zeno_peak_rss_does_not_grow_with_its_chain(tmp_path):
    # the survival curve, p**k for k = 0..N, was once built whole to print its
    # last entry (and its times with it, for --out): 10**7 measurements peaked
    # at 182.6 MB of RSS, and 182.8 MB with --out, against 30.2 MB at N = 1000
    peaks = {}
    for n, out in (("1000", ()), ("10000000", ()), ("10000000", ("--out", "z.csv"))):
        code, peaks[n, out], err = peak_rss(["zeno", "--tau", "1e-13", "--N", n, *out],
                                            tmp_path)
        assert (code, err) == (0, "")
    assert (tmp_path / "z.csv").stat().st_size == 460_000_059
    (tmp_path / "z.csv").unlink()
    assert max(peaks.values()) - peaks["1000", ()] < 1.0, peaks


def test_zeno_sweep_peak_rss_does_not_grow_with_its_horizon(tmp_path):
    # the sweep's table was once built whole, with one Python tuple of closed
    # forms per row: 10**5 rows peaked at 61.9 MB of RSS, against 30.4 MB for
    # the preset's 11
    peaks = {}
    for horizon in ((), ("--horizon", "1e-5")):
        code, peaks[horizon], err = peak_rss(["run", "--scenario", "zeno_sweep", *horizon,
                                              "--out", "z.csv"], tmp_path)
        assert (code, err) == (0, "")
    assert peaks["--horizon", "1e-5"] - peaks[()] < 1.0, peaks


def test_guard_error_wins_over_observable_error(tmp_path, capsys):
    # the guard checks a block before any observable sees it: the preset's
    # trace leaves 1e-6 at sample 19, in its first block, and each of its five
    # columns fails on that block too
    out = tmp_path / "s.csv"
    assert main(["run", "--scenario", "driven_resonant", "--rhs", "published",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: trace drifted by")
    assert not out.exists()
    # an earlier block's observable error is raised first: the switch-off
    # trigger probe's rho_ss leaves [0, 1] at sample 20, long before its trace
    # guard would trip
    assert main(["run", "--scenario", "switch_off", "--rhs", "published", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: population -1.672e-05 below 0 beyond tolerance\n"
    assert not out.exists()
    # a run whose trace holds fails on its first observable error
    assert main(["run", "--scenario", "free_eg", "--rhs", "published", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: population")
    assert not out.exists()


def test_bare_population_above_one_exits_2(tmp_path, capsys):
    # the bare columns once went unchecked: this run wrote rho22 up to 398.67
    out = tmp_path / "u.csv"
    assert main(["run", "--scenario", "free_eg", "--rhs", "published",
                 "--observables", "rho22,rho33", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: population 1.019928e+00 above 1 beyond tolerance\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, config", [
    (["--scenario", "free_eg", "--delta-l", "4e9"], None),
    (["--scenario", "free_eg", "--sweep", "delta_l=1e9,2e9"], None),
    ([], {"initial": "e1g2", "J": 4e9, "horizon": 1e-9, "delta_l": 3e9}),
], ids=["flag", "sweep", "config"])
def test_undriven_delta_l_exits_2(tmp_path, capsys, argv, config):
    # an undriven run reads omega0, not delta_l, so these once ran unchanged
    out = tmp_path / "d.csv"
    if config is not None:
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"out": str(out), **config}))
        argv = ["--config", str(path)]
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: delta_l must be 0 when driven is False\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, config", [
    (["--scenario", "driven_detuned_s", "--samples", "11", "--omega0", "1e9"], None),
    (["--scenario", "driven_detuned_s", "--samples", "11", "--sweep", "omega0=1e9,2e9"], None),
    ([], {"initial": "e1g2", "J": 4e9, "Omega": 3e7, "driven": True, "horizon": 1e-9,
          "samples": 11, "omega0": 1e11}),
], ids=["flag", "sweep", "config"])
def test_driven_omega0_exits_2(tmp_path, capsys, argv, config):
    # a driven run reads delta_l, not omega0, so these once ran unchanged
    out = tmp_path / "d.csv"
    if config is not None:
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"out": str(out), **config}))
        argv = ["--config", str(path)]
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: a driven run's rotating frame reads delta_l, so it takes no omega0\n")
    assert not list(tmp_path.glob("*.csv"))


def test_unwritable_out_is_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(run_args(out)) == 4
    capsys.readouterr()


def counted_walks(monkeypatch):
    """A list that gets the arguments of each walk a run starts from here on."""
    walks = []
    walk = scenarios.integrate_blocks
    monkeypatch.setattr(scenarios, "integrate_blocks",
                        lambda *args: walks.append(args) or walk(*args))
    return walks


@pytest.mark.parametrize("out, line", [
    ("no/x.csv", "[Errno 2] No such file or directory: 'no/x.csv'"),
    ("d", "[Errno 21] Is a directory: 'd'"),
    ("d/", "[Errno 21] Is a directory: 'd/'"),
], ids=["missing-directory", "directory", "directory-slash"])
def test_out_that_cannot_be_written_exits_4_with_its_line(tmp_path, monkeypatch, capsys,
                                                          out, line):
    # each point is written beside its target and renamed onto it, and the
    # error still names the path given, as opening it would; a directory was
    # once refused only by the rename, after the whole walk
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    walks = counted_walks(monkeypatch)
    assert main(["run", "--scenario", "free_eg", "--samples", "11", "--out", out]) == 4
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert walks == []
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_missing_directory_fails_before_a_failing_walk(tmp_path, capsys):
    # each point's file is made before its walk starts, so of the two faults
    # the output path's is reported
    out = tmp_path / "no" / "x.csv"
    assert main(["run", "--scenario", "free_eg", "--rhs", "published", "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")


def test_sweep_onto_a_directory_index_fails_before_its_first_walk(tmp_path, monkeypatch,
                                                                  capsys):
    # the index was once written after both points had been renamed into place,
    # so this printed two wrote lines, exited 4 and left both point CSVs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.index.csv").mkdir()
    walks = counted_walks(monkeypatch)
    assert main(["run", "--scenario", "free_eg", "--samples", "5", "--sweep", "J=1e9,2e9",
                 "--out", "x.csv"]) == 4
    assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: 'x.index.csv'\n")
    assert walks == []
    assert [p.name for p in tmp_path.iterdir()] == ["x.index.csv"]
    assert list((tmp_path / "x.index.csv").iterdir()) == []


def test_empty_save_config_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # opening "" fails; its real path is the working directory, beside which a
    # temporary file must not be made
    (tmp_path / "w").mkdir()
    monkeypatch.chdir(tmp_path / "w")
    assert main(["run", "--scenario", "free_eg", "--samples", "5", "--out", "o.csv",
                 "--save-config", ""]) == 4
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
    assert [p.name for p in tmp_path.iterdir()] == ["w"]
    assert list((tmp_path / "w").iterdir()) == []


def test_sweep_writes_its_config_and_index_through_temporary_files(tmp_path, monkeypatch,
                                                                    capsys):
    # the config was once opened in place and the index written after the
    # temporary files were renamed; the lines keep their order
    monkeypatch.chdir(tmp_path)
    made = []
    temporary = cli._temporary
    monkeypatch.setattr(cli, "_temporary", lambda path: made.append(path) or temporary(path))
    assert main(["run", "--scenario", "free_eg", "--samples", "5", "--sweep", "J=1e9,2e9",
                 "--out", "x.csv", "--save-config", "x.json"]) == 0
    names = ["x.json", "x.J1e+09.csv", "x.J2e+09.csv", "x.index.csv"]
    assert capsys.readouterr() == ("".join(f"wrote {name}\n" for name in names), "")
    assert made == names
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert json.loads((tmp_path / "x.json").read_text())["sweep_values"] == [1e9, 2e9]


def test_sweep_whose_second_point_fails_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the first point is written whole before the second fails in its trigger search
    monkeypatch.chdir(tmp_path)
    made = []
    temporary = cli._temporary

    def recorded(path):
        made.append(temporary(path))
        return made[-1]

    monkeypatch.setattr(cli, "_temporary", recorded)
    assert main(["run", "--scenario", "switch_off", "--samples", "11",
                 "--sweep", "horizon=500ns,10ns", "--out", "s.csv"]) == 2
    assert capsys.readouterr() == ("", "error: horizon=1e-08: switch-off trigger found no "
                                   "rho_ss maximum in the probe window [0, 1.000e-08] s "
                                   "(series is monotone; no local maximum); a longer horizon "
                                   "(--horizon) widens it\n")
    assert [os.path.basename(temp) for temp, _ in made] == [
        "s.horizon5e-07.csv.0.tmp", "s.horizon1e-08.csv.0.tmp"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--scenario", "free_eg", "--rhs", "published", "--out", "s.csv"],
    ["--scenario", "switch_off", "--samples", "11", "--sweep", "horizon=500ns,10ns",
     "--out", "s.csv"],
], ids=["run", "sweep"])
def test_failed_run_leaves_an_existing_target_unchanged(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    targets = ["s.csv", "s.horizon5e-07.csv", "s.horizon1e-08.csv"]
    for name in targets:
        (tmp_path / name).write_text(f"kept {name}\n")
    assert main(["run", *argv]) == 2
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(targets)
    assert all((tmp_path / name).read_text() == f"kept {name}\n" for name in targets)


def test_run_never_replaces_a_file_of_its_temporary_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv.0.tmp").write_text("someone's\n")
    assert main(["run", "--scenario", "free_eg", "--samples", "11", "--out", "s.csv"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.0.tmp"]
    assert (tmp_path / "s.csv.0.tmp").read_text() == "someone's\n"
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 12


def test_run_leaves_a_file_made_under_a_renamed_temporary_name(tmp_path, monkeypatch, capsys):
    # once a point's file is renamed, its temporary name is free: another run
    # writing the same target takes it, and this run must not remove that file
    monkeypatch.chdir(tmp_path)

    def other_run(*args, **kwargs):
        (tmp_path / "s.csv.0.tmp").write_text("another run's\n")

    monkeypatch.setattr(cli, "print", other_run, raising=False)
    assert main(["run", "--scenario", "free_eg", "--samples", "11", "--out", "s.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.0.tmp"]
    assert (tmp_path / "s.csv.0.tmp").read_text() == "another run's\n"


@pytest.mark.parametrize("name", ["a" * 246 + ".csv", "a" * 251 + ".csv", "\u00e9" * 125 + ".csv"],
                         ids=["250-bytes", "255-bytes", "utf-8-254-bytes"])
def test_long_out_name_is_written(tmp_path, monkeypatch, capsys, name):
    # `<target>.<n>.tmp` once went past the name limit of 255 bytes, so a
    # name of 250 bytes and more exited 4 with "File name too long"
    if os.pathconf(tmp_path, "PC_NAME_MAX") != 255:
        pytest.skip("the names are sized for a 255-byte name limit")
    monkeypatch.chdir(tmp_path)
    made = []
    temporary = cli._temporary

    def recorded(path):
        made.append(temporary(path))
        return made[-1]

    monkeypatch.setattr(cli, "_temporary", recorded)
    assert main(["run", "--scenario", "free_eg", "--samples", "5", "--out", name]) == 0
    assert capsys.readouterr() == (f"wrote {name} (5 rows, 7 columns)\n", "")
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert len((tmp_path / name).read_text().splitlines()) == 6
    # the longest prefix of the target's name, in whole characters, that fits
    [(temp, _)] = made
    cut = os.path.basename(temp).removesuffix(".0.tmp")
    assert name.startswith(cut) and cut != name
    assert len(os.fsencode(f"{cut}.0.tmp")) <= 255
    assert len(os.fsencode(f"{name[:len(cut) + 1]}.0.tmp")) > 255


def test_out_name_past_the_limit_is_refused_before_its_walk(tmp_path, monkeypatch, capsys):
    # a 256-byte name can never be made, so the run stops before it walks,
    # as it did when the temporary name held the whole target name
    if os.pathconf(tmp_path, "PC_NAME_MAX") != 255:
        pytest.skip("the name is sized for a 255-byte name limit")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_run_blocks", None)  # a walk would raise TypeError
    name = "a" * 252 + ".csv"
    assert main(["run", "--scenario", "free_eg", "--samples", "5", "--out", name]) == 4
    assert capsys.readouterr() == ("", f"error: [Errno 36] File name too long: '{name}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_new_csv_takes_the_mode_the_umask_leaves(tmp_path, capsys, umask):
    # as open(path, "wb") makes it: 0o666 less the umask, not mkstemp's 0o600
    old = os.umask(umask)
    try:
        assert main(run_args(tmp_path / "a.csv", "--sweep", "gamma=0,1e6")) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    for name in ("a.gamma0.csv", "a.gamma1e+06.csv", "a.index.csv"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o666 & ~umask, name


def test_out_that_is_a_symlink_updates_its_target(tmp_path, capsys):
    (tmp_path / "data").mkdir()
    link, target = tmp_path / "link.csv", tmp_path / "data" / "real.csv"
    link.symlink_to(target)
    assert main(run_args(link)) == 0
    assert main(run_args(tmp_path / "plain.csv")) == 0
    capsys.readouterr()
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert [p.name for p in (tmp_path / "data").iterdir()] == ["real.csv"]


def test_sweep_writes_points_and_index(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(run_args(out, "--sweep", "gamma=0,1e6", "--samples", "5"))
    assert code == 0
    capsys.readouterr()
    p0 = tmp_path / "sweep.gamma0.csv"
    p1 = tmp_path / "sweep.gamma1e+06.csv"
    index = tmp_path / "sweep.index.csv"
    assert p0.exists() and p1.exists() and index.exists()
    lines = index.read_text().splitlines()
    assert lines[0] == "param,value,path"
    assert lines[1] == f"gamma,0.0000000000000000e+00,{p0}"
    assert lines[2] == f"gamma,1.0000000000000000e+06,{p1}"
    assert p0.read_bytes() != p1.read_bytes()  # dephasing changes the run


def test_sweep_values_take_their_flags_units(tmp_path, capsys):
    # --sweep horizon=1ns,2ns once exited 2 while --horizon 2ns worked
    written = {}
    for name, sweep in [("si", "horizon=1e-9,2e-9"), ("units", "horizon=1ns, 2 ns")]:
        (tmp_path / name).mkdir()
        out = tmp_path / name / "s.csv"
        assert main(["run", "--scenario", "free_eg", "--samples", "11",
                     "--out", str(out), "--sweep", sweep]) == 0
        written[name] = {p.name: p.read_text().replace(str(tmp_path / name), "DIR")
                         for p in sorted((tmp_path / name).iterdir())}
    capsys.readouterr()
    assert sorted(written["si"]) == ["s.horizon1e-09.csv", "s.horizon2e-09.csv", "s.index.csv"]
    assert written["units"] == written["si"]


@pytest.mark.parametrize("sweep, message", [
    ("gamma=1ns", "unknown rate unit 'ns'"),
    ("horizon=1e-9,2 rad/s", "unknown time unit 'rad/s'"),
    ("gamma=1e6,abc", "cannot parse rate value 'abc'"),
    ("gamma=1e6,nan", "not finite"),
    ("tau=1e-9", "sweep parameter must be one of"),
])
def test_bad_sweep_value_exits_2(tmp_path, capsys, sweep, message):
    assert main(["run", "--scenario", "free_eg", "--out", str(tmp_path / "s.csv"),
                 "--sweep", sweep]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenario, sweep", [
    ("free_eg", "gamma=1e6,-1"),
    ("free_eg", "horizon=1e-9,0"),
    ("zeno_sweep", "J=4e9,3e10"),  # 1e-10 s intervals leave the Zeno window
    ("switch_off", "horizon=5e-7,1e-8"),  # the drive never peaks in 10 ns
])
def test_sweep_with_a_bad_point_writes_nothing(tmp_path, capsys, scenario, sweep):
    # the first point's CSV was once written before the second point failed;
    # the Zeno-sweep preset takes no --samples
    samples = [] if scenario == "zeno_sweep" else ["--samples", "11"]
    assert main(["run", "--scenario", scenario, *samples,
                 "--out", str(tmp_path / "s.csv"), "--sweep", sweep,
                 "--save-config", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    if scenario == "free_eg" and sweep == "gamma=1e6,-1":
        # a point that fails its check while the config is built is not named
        assert err == "error: gamma must be >= 0, got -1.0\n"
    if scenario == "zeno_sweep":
        assert "Zeno window" in err
    if scenario == "switch_off":  # fails at run time, so the point is named
        assert err.startswith("error: horizon=1e-08: switch-off trigger found no rho_ss "
                              "maximum in the probe window [0, 1.000e-08] s")
    assert list(tmp_path.iterdir()) == []


def test_sweep_value_of_null_exits_2(tmp_path, capsys):
    # a null value once resolved as "not set" and then failed to name its
    # CSV with a TypeError traceback
    path = tmp_path / "bad.json"
    path.write_text('{"out": "%s", "scenario": "free_eg", "sweep_param": "gamma", '
                    '"sweep_values": [1e6, null]}' % (tmp_path / "x.csv"))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: gamma must be a finite number, got None\n"
    assert list(tmp_path.iterdir()) == [path]


def test_custom_sweep_sets_a_required_field(tmp_path, capsys):
    # the swept J stands in for --J, which a custom run needs
    assert main(["run", "--initial", "e1g2", "--horizon", "1ns", "--samples", "11",
                 "--out", str(tmp_path / "s.csv"), "--sweep", "J=1e9,2e9"]) == 0
    for j in ("1e9", "2e9"):
        plain = tmp_path / f"plain{j}.csv"
        assert main(["run", "--initial", "e1g2", "--horizon", "1ns", "--samples", "11",
                     "--J", j, "--out", str(plain)]) == 0
        assert (tmp_path / f"s.J{float(j):g}.csv").read_bytes() == plain.read_bytes()
    capsys.readouterr()


def test_each_run_point_is_resolved_once(tmp_path, capsys, monkeypatch):
    calls = []
    resolve = cli._scenario_from_config

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(cli, "_scenario_from_config", counting)
    saved = tmp_path / "run.json"
    assert main(["run", "--scenario", "free_eg", "--samples", "11", "--out",
                 str(tmp_path / "a.csv"), "--save-config", str(saved)]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["run", "--scenario", "driven_detuned_s", "--samples", "11", "--out",
                 str(tmp_path / "s.csv"), "--sweep", "Omega=3e7,4e7,5e7"]) == 0
    assert [args[1:] for args in calls] == [(3e7,), (4e7,), (5e7,)]
    calls.clear()
    assert main(["run", "--config", str(saved), "--out", str(tmp_path / "b.csv")]) == 0
    assert len(calls) == 1
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sample_count_above_the_cap_exits_2(tmp_path, capsys):
    # 10**13 samples once ended in numpy's "Unable to allocate 72.8 TiB"
    out = tmp_path / "r.csv"
    assert main(["run", "--scenario", "free_eg", "--samples", str(MAX_SAMPLES + 1),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: 10000001 samples are above the cap of 10000000\n"
    assert not out.exists()


def test_switch_off_without_a_maximum_names_the_probe_window(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["run", "--scenario", "switch_off", "--horizon", "1ns", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: switch-off trigger found no rho_ss maximum in the probe window "
        "[0, 1.000e-09] s (series is monotone; no local maximum); "
        "a longer horizon (--horizon) widens it\n"
    )
    assert not out.exists()


def test_repeated_observables_exit_2(tmp_path, capsys):
    # the header once read t_s,C,C and plot read the first C
    out = tmp_path / "r.csv"
    assert main(["run", "--scenario", "free_eg", "--observables", "C,C", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: observables ['C'] are listed more than once\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sweep", ["Omega=4e7,4.0000001e7", "Omega=4e7,4e7",
                                   "Omega=3e7,4e7,5e7,4.0000001e7"])
def test_sweep_with_colliding_paths_writes_nothing(tmp_path, capsys, sweep):
    # both points once went to s.Omega4e+07.csv, the second over the first
    assert main(["run", "--scenario", "driven_detuned_s", "--samples", "11",
                 "--out", str(tmp_path / "s.csv"), "--sweep", sweep,
                 "--save-config", str(tmp_path / "s.json")]) == 2
    assert "would both write" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["a,b.csv", 'a"b.csv', "n\nl.csv", "c\rr.csv"],
                         ids=["comma", "quote", "newline", "carriage-return"])
def test_sweep_out_that_would_break_the_index_writes_nothing(tmp_path, capsys, name):
    # each path is a field of the unquoted index CSV: a comma once made its rows
    # read J,1.0000000000000000e+09,a,b.J1e+09.csv, and a line break split them
    out = str(tmp_path / name)
    refusal = ("error: a sweep's out path may not hold a comma, a quote or a line break, "
               f"got {out!r}\n")
    assert main(["run", "--scenario", "free_eg", "--samples", "3", "--sweep", "J=1e9,2e9",
                 "--out", out, "--save-config", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == refusal
    assert list(tmp_path.iterdir()) == []
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"out": out, "scenario": "free_eg", "samples": 3,
                                  "sweep_param": "J", "sweep_values": [1e9, 2e9]}))
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == refusal
    assert list(tmp_path.iterdir()) == [config]
    # a run without a sweep writes no index, so its path may hold any of them
    assert main(["run", "--scenario", "free_eg", "--samples", "3", "--out", out]) == 0
    capsys.readouterr()


def test_switch_off_trigger_survives_a_probe_spacing_near_underflow(tmp_path, capsys):
    # at Omega = 1e300 the probe spacing is about 8.9e-304 s; the cube of it in the
    # parabola's determinant once underflowed to 0, and the trigger read nan
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", "switch_off", "--Omega", "1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (3001 rows, 7 columns)\n"


def test_bad_sweep_argument(tmp_path, capsys):
    assert main(run_args(tmp_path / "s.csv", "--sweep", "gamma")) == 2
    assert main(run_args(tmp_path / "s.csv", "--sweep", "gamma=a,b")) == 2
    assert main(run_args(tmp_path / "s.csv", "--sweep", "phase=1,2")) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_non_finite_config_exits_2(tmp_path, capsys, text):
    # a NaN rate once made the run hang instead of failing
    path = tmp_path / "bad.json"
    path.write_text('{"out": "%s", "scenario": "free_eg", "gamma": %s}'
                    % (tmp_path / "x.csv", text))
    assert main(["run", "--config", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("fields, message", [
    ({"scenario": "free_eg", "horizon": 10**400}, "horizon must be > 0, got 1.000e+400"),
    ({"scenario": "free_eg", "J": 10**400}, "J must be a finite number, got 1.000e+400"),
    ({"scenario": "free_eg", "omega0": -10**400},
     "omega0 must be a finite number, got -1.000e+400"),
    ({"scenario": "switch_off", "horizon": 10**400}, "horizon must be > 0, got 1.000e+400"),
    ({"scenario": "zeno_sweep", "sweep_param": "J", "sweep_values": [4e9, 10**400]},
     "J must be a finite number, got 1.000e+400"),
    ({"scenario": "free_eg", "samples": 10**400},
     "1.000e+400 samples are above the cap of 10000000"),
    # the message once held all 401 digits
    ({"scenario": "free_eg", "schema_version": 10**400},
     "unsupported schema_version 1.000e+400 (this build reads version 1)"),
], ids=["horizon", "J", "omega0", "switch_off", "sweep", "samples", "schema_version"])
def test_config_int_past_the_float_range_exits_2(tmp_path, capsys, fields, message):
    # JSON reads a 400-digit number as an int, whose check once raised OverflowError
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"out": str(tmp_path / "x.csv"), **fields}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [path]


_HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("fields, message", [
    ({"J": _HUGE}, "J must be a finite number, got 1.000e+5000"),
    ({"omega0": "-" + "9" * 5001}, "omega0 must be a finite number, got -9.999e+5000"),
    ({"samples": _HUGE}, "1.000e+5000 samples are above the cap of 10000000"),
    ({"schema_version": _HUGE},
     "unsupported schema_version 1.000e+5000 (this build reads version 1)"),
    # string and list fields once showed such a value with repr, which raised
    ({"scenario": _HUGE}, "scenario must be a string or null, got 1.000e+5000"),
    ({"sweep_param": _HUGE}, "sweep_param must be a string or null, got 1.000e+5000"),
    ({"rhs": _HUGE}, "rhs must be 'derived' or 'published', got 1.000e+5000"),
    ({"initial": _HUGE}, "initial must be a state name, got 1.000e+5000"),
    ({"observables": f"[{_HUGE}]"},
     f"unknown observables [1.000e+5000]; valid: {sorted(OBSERVABLES)}"),
    ({"sweep_param": '"J"', "sweep_values": _HUGE},
     "sweep_values must be a list, got 1.000e+5000"),
    ({"out": _HUGE}, "out must name an output path, got 1.000e+5000"),
    ({"samples": f"[{_HUGE}]"}, "samples must be an integer, got [1.000e+5000]"),
    ({"driven": _HUGE}, "driven must be True or False, got 1.000e+5000"),
], ids=["J", "omega0", "samples", "schema_version", "scenario", "sweep_param", "rhs", "initial",
        "observables", "sweep_values", "out", "samples-list", "driven"])
def test_config_int_past_the_digit_limit_names_its_field(tmp_path, capsys, fields, message):
    # json.loads once refused these with Python's own 4,300-digit limit, naming no field;
    # json.dumps refuses them too, so the text is written by hand.  No --out is given,
    # so the config's own out is the one checked
    path = tmp_path / "big.json"
    doc = {"out": '"%s"' % (tmp_path / "x.csv"), "scenario": '"free_eg"', **fields}
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("depth, message", [
    (900, "out must name an output path, got [[[...]]]"),
    (990, "config is nested too deeply"),
    (5000, "config is nested too deeply"),
])
def test_deeply_nested_config_exits_2(tmp_path, depth, message):
    # json.loads recurses once per level, and its RecursionError once escaped main;
    # a fresh interpreter, so the depth the decoder reaches is the command's own
    path = tmp_path / "deep.json"
    path.write_text('{"scenario": "free_eg", "out": %s1%s}' % ("[" * depth, "]" * depth))
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    run = subprocess.run([sys.executable, "-m", "qdimer.cli", "run", "--config", str(path)],
                         env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv, config, message", [
    (["--scenario", "switch_off", "--initial", "s", "--samples", "11"], None,
     "switch-off trigger 0.000e+00 s outside (0, horizon)"),
    (["--initial", "e1g2", "--J", "1e9"], None,
     "custom runs need --initial, --J and --horizon (or --scenario)"),
    ([], "[1]", "config must be a JSON object"),
], ids=["switch-off-from-s", "custom-without-horizon", "config-not-an-object"])
def test_refused_run_exits_2_with_one_line(tmp_path, capsys, argv, config, message):
    out = tmp_path / "r.csv"
    if config is not None:
        path = tmp_path / "r.json"
        path.write_text(config)
        argv = ["--config", str(path)]
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_sweep_exits_2(tmp_path, capsys, value):
    # --sweep gamma=inf once wrote a CSV frozen at the initial state
    out = tmp_path / "s.csv"
    assert main(["run", "--scenario", "free_eg", "--out", str(out),
                 "--sweep", f"gamma=1e6,{value}"]) == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "free_LL", "--out", "r.csv"],
    # the free tail starts mid-block
    ["run", "--scenario", "switch_off", "--samples", "3001", "--horizon", "5e-7",
     "--out", "r.csv"],
    ["run", "--scenario", "driven_detuned_s", "--sweep", "Omega=3e7,4e7", "--out", "s.csv"],
    ["audit", "--initial", "f"],
    # the published run is skipped for concurrence at every sample after t = 0
    ["audit", "--initial", "g1e2", "--samples", "1537"],
], ids=["free_LL", "switch_off", "sweep", "audit", "audit_g1e2"])
def test_outputs_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, argv):
    outputs = []
    for size in (7, 256, 512):
        monkeypatch.setattr(states, "BLOCK", size)
        folder = tmp_path / str(size)
        folder.mkdir()
        monkeypatch.chdir(folder)  # the sweep index holds the paths it was given
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        files = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
        assert files or argv[0] == "audit"
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# other subcommands

def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(catalog()) == 9
    assert lines[0].startswith("free_eg: initial=e1g2 omega0=1.5e+11 J=4e+09")
    assert "observables=rho11,rho22,rho33,rho44,rho_ff,rho_kk,C" in lines[0]
    assert any("field_off=auto" in line for line in lines)
    # the sweep lists only what its chains read
    assert lines[-1] == "zeno_sweep: J=4e+09 gamma=1e+06 horizon=1e-09 zeno_taus=1e-10,1e-11,5e-12"


def drained(fd):
    """Everything a non-blocking reader of a FIFO holds once its writer has closed."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def test_run_writes_fifos_in_place(tmp_path, monkeypatch, capsys):
    # a FIFO --out was once written into a temporary file that was then renamed
    # over it: the FIFO became a regular file and its reader got 0 bytes
    (tmp_path / "ref").mkdir()
    monkeypatch.chdir(tmp_path / "ref")
    argv = ["run", "--scenario", "free_eg", "--samples", "5", "--out", "p",
            "--save-config", "q"]
    assert main(argv) == 0
    lines = capsys.readouterr().out
    (tmp_path / "fifo").mkdir()
    monkeypatch.chdir(tmp_path / "fifo")
    for name in ("p", "q"):
        os.mkfifo(name)
    # each FIFO has a reader before the run opens it, or the open would block;
    # the files fit the 64 KiB pipe buffer, so no write waits for a read
    readers = {name: os.open(name, os.O_RDONLY | os.O_NONBLOCK) for name in ("p", "q")}
    try:
        assert main(argv) == 0
        assert capsys.readouterr().out == lines
        for name, fd in readers.items():
            assert drained(fd) == (tmp_path / "ref" / name).read_bytes(), name
        # a failing run writes its header there too, and leaves each FIFO as it was
        assert main(["run", "--scenario", "free_eg", "--rhs", "published", "--samples",
                     "2000001", "--out", "p", "--save-config", "q"]) == 2
        assert capsys.readouterr() == (
            "", "error: population 1.000000e+00 above 1 beyond tolerance\n")
        assert drained(readers["p"]) == b"t_s,rho11,rho22,rho33,rho44,rho_ff,rho_kk,C\n"
        assert drained(readers["q"]).startswith(b"{")
    finally:
        for fd in readers.values():
            os.close(fd)
    assert sorted(p.name for p in (tmp_path / "fifo").iterdir()) == ["p", "q"]
    assert all(stat.S_ISFIFO(os.stat(name).st_mode) for name in ("p", "q"))


def test_run_writes_a_piped_stdout_in_place(tmp_path):
    # /dev/stdout links to the pipe, beside which no temporary file can be
    # made: the run once exited 4 with "No such file or directory: '/dev/stdout'"
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    run = subprocess.run([sys.executable, "-m", "qdimer.cli", "run", "--scenario", "free_eg",
                          "--samples", "3", "--out", "/dev/stdout"], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert lines[0] == "t_s,rho11,rho22,rho33,rho44,rho_ff,rho_kk,C"
    assert len(lines) == 5
    assert lines[-1] == "wrote /dev/stdout (3 rows, 7 columns)"
    assert list(tmp_path.iterdir()) == []


def parse_report(out):
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition(" = ")
        values[key.strip()] = val.strip()
    return values


def test_zeno_command(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code = main(["zeno", "--tau", "0.01ns", "--T", "1ns", "--out", str(out)])
    assert code == 0
    report = parse_report(capsys.readouterr().out)
    assert int(report["n_measurements"]) == 100
    assert float(report["tau_s"]) == pytest.approx(1e-11)
    assert float(report["total_time_s"]) == pytest.approx(1e-9)
    # gamma defaults to 0, so the run lands on the exact closed form
    assert float(report["survival"]) == pytest.approx(0.8521074161, rel=1e-6)
    assert float(report["survival_exact_gamma0"]) == pytest.approx(0.8521074161, rel=1e-6)
    assert float(report["survival_gaussian"]) == pytest.approx(np.exp(-0.16), rel=1e-6)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,survival"
    assert len(lines) == 102


def test_zeno_dephasing_lowers_survival(capsys):
    assert main(["zeno", "--tau", "0.01ns", "--N", "100", "--gamma", "1e6"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["survival"]) < float(report["survival_exact_gamma0"])


def test_zeno_inconsistent_duration(capsys):
    assert main(["zeno", "--tau", "0.3ns", "--T", "1ns"]) == 2
    assert "whole number" in capsys.readouterr().err


def test_zeno_zero_tau_exits_2(capsys):
    # T / tau once divided by zero before anything checked tau
    assert main(["zeno", "--tau", "0", "--T", "1ns"]) == 2
    assert "tau must be > 0" in capsys.readouterr().err
    # a duration that is not positive once read as "not a whole number of tau"
    for duration in ("0", "-1ns"):
        assert main(["zeno", "--tau", "1ns", "--T", duration]) == 2
        assert "--T must be > 0" in capsys.readouterr().err


def test_zeno_count_above_the_cap_exits_2(capsys):
    # T / tau = 1e291 measurements once reached numpy's bare "Maximum allowed size"
    assert main(["zeno", "--tau", "1e-300", "--T", "1ns"]) == 2
    assert capsys.readouterr().err == (
        "error: tau = 1.000e-300 s asks for 1.000e+291 measurements, above the cap of 10000000\n"
    )


@pytest.mark.parametrize("argv, tau", [
    (["zeno", "--tau", "1e-300", "--T", "1e10", "--out", "z.csv"], "1.000e-300"),
    (["run", "--scenario", "zeno_sweep", "--horizon", "1e300", "--out", "z.csv"], "1.000e-10"),
], ids=["zeno", "zeno_sweep"])
def test_tau_ratio_that_overflows_exits_2(tmp_path, monkeypatch, capsys, argv, tau):
    # T / tau = 1e310 overflows to inf, which once ended in an OverflowError traceback
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: tau = {tau} s asks for more than 1e308 "
                                       "measurements, above the cap of 10000000\n")
    assert list(tmp_path.iterdir()) == []


def test_constants_command(capsys):
    code = main(["constants", "--d0", "1.46D", "--r", "10nm", "--E-l", "1V/m"])
    assert code == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["J"].split()[0]) == pytest.approx(4.0425862897e9, rel=1e-6)
    assert float(report["einstein_a"].split()[0]) == pytest.approx(3.3758233135e-7, rel=1e-6)
    assert float(report["Omega"].split()[0]) == pytest.approx(2.3090103118e4, rel=1e-6)


def test_constants_without_field_omits_rabi(capsys):
    assert main(["constants", "--d0", "1.46D", "--r", "10nm"]) == 0
    out = capsys.readouterr().out
    assert "Omega" not in out
    assert "J = " in out and "einstein_a = " in out


@pytest.mark.parametrize("flags, message", [
    (["--omega0", "-1"], "omega0 must be >= 0, got -1.0"),
    (["--E-l", "-1V/m"], "E_l must be >= 0, got -1.0"),
    (["--d0", "0D"], "d0 must be > 0, got 0.0"),
    (["--r", "-1nm"], "r must be > 0, got -1e-09"),
    (["--mu-eg", "0D"], "mu_eg must be > 0, got 0.0"),
    (["--mu-eg", "-1D"], "mu_eg must be > 0, got -3.33564e-30"),
])
def test_constants_prints_nothing_before_a_bad_value(capsys, flags, message):
    # J was once printed before the bad value exited 2
    assert main(["constants", "--d0", "1.46D", "--r", "10nm", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_constants_mu_eg_defaults_to_d0(capsys):
    base = ["constants", "--d0", "2D", "--r", "10nm", "--E-l", "3V/m"]
    outputs = []
    for extra in ([], ["--mu-eg", "2D"], ["--mu-eg", "1D"]):
        assert main([*base, *extra]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    default, same, other = outputs
    assert len(default) == 3 and default == same
    assert [a == b for a, b in zip(default, other)] == [True, False, False]
    assert [line.split(" = ")[0] for line in other] == ["J", "einstein_a", "Omega"]


@pytest.mark.parametrize("flags, rate", [
    (["--r", "1e-300m"], "J"),
    (["--r", "1e300"], "J"),
    (["--d0", "1e300"], "J"),
    (["--mu-eg", "1e300"], "einstein_a"),
    (["--omega0", "1e300"], "einstein_a"),
    (["--mu-eg", "1e150", "--omega0", "0", "--E-l", "1e160"], "Omega"),
])
def test_constants_rate_that_is_not_finite_exits_2(capsys, flags, rate):
    # the first five once ended in a ZeroDivisionError or OverflowError traceback
    assert main(["constants", "--d0", "1.46D", "--r", "10nm", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {rate} is not a finite number for these inputs\n")


def test_audit_command_divergent_start(capsys):
    code = main(["audit", "--initial", "e1g2", "--horizon", "1ns", "--samples", "41"])
    assert code == 0
    report = parse_report(capsys.readouterr().out)
    # the two generators genuinely part ways from a bare excitation...
    assert float(report["max_population_deviation"]) > 0.1
    # ...while the frozen population gap of the closed published system stays put
    assert float(report["published_pop23_diff_drift"]) < 1e-6
    assert float(report["published_trace_drift_no_closure"]) > 0.1
    # every published state after t = 0 is unphysical, so the concurrence
    # deviation is unknown rather than 0
    assert int(report["concurrence_skipped"]) == 40
    assert math.isnan(float(report["max_concurrence_deviation"]))


def test_audit_command_agreeing_start(capsys):
    code = main(["audit", "--initial", "L1L2", "--horizon", "1ns", "--samples", "21"])
    assert code == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["max_population_deviation"]) < 1e-10
    assert float(report["max_rho_deviation"]) < 1e-10
    assert float(report["max_concurrence_deviation"]) < 1e-10


def test_audit_prints_every_report_field(capsys):
    assert main(["audit", "--samples", "11"]) == 0
    names = [line.partition(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    fields = [f.name for f in dataclasses.fields(ConsistencyReport)]
    assert names == ["initial", "horizon_s", *fields]


@pytest.mark.parametrize("flags, message", [
    (["--horizon", "0"], "horizon must be > 0"),
    (["--horizon", "-1ns"], "horizon must be > 0"),
    (["--samples", "1"], "at least 2 samples"),
    (["--samples", "0"], "at least 2 samples"),
    (["--samples", str(MAX_SAMPLES + 1)], "above the cap of 10000000"),
])
def test_audit_command_rejects_bad_ranges(capsys, flags, message):
    # a zero or negative horizon was blamed on sample_times, and one sample
    # printed all-zero deviations
    assert main(["audit", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


_RUN_UNIT_FLAGS = ("--horizon", "--omega0", "--J", "--Omega", "--gamma", "--delta-l")
# each command's base arguments and the unit-bearing flags it takes
_UNIT_FLAG_COMMANDS = {
    "run-driven": (["run", "--scenario", "driven_detuned_s", "--samples", "11"],
                   _RUN_UNIT_FLAGS),
    "run-free": (["run", "--scenario", "free_eg", "--samples", "11"], _RUN_UNIT_FLAGS),
    "run-zeno_sweep": (["run", "--scenario", "zeno_sweep"], _RUN_UNIT_FLAGS),
    "zeno-N": (["zeno", "--tau", "1e-11", "--N", "10"], ("--tau", "--J", "--gamma")),
    "zeno-T": (["zeno", "--tau", "1e-11", "--T", "1e-10"], ("--tau", "--T", "--J", "--gamma")),
    "audit": (["audit", "--samples", "11"], ("--horizon", "--J", "--gamma")),
    "constants": (["constants", "--d0", "1.46D", "--r", "10nm"],
                  ("--d0", "--r", "--mu-eg", "--omega0", "--E-l")),
}
# the flags a command no longer takes: omega0 drops out of the zeno chain and the audit
_GONE_FLAGS = {"zeno-N": ("--omega0",), "zeno-T": ("--omega0",), "audit": ("--omega0",)}


@pytest.mark.parametrize("value", ["1e-300", "1e300", "-1e300"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in _UNIT_FLAG_COMMANDS.items()
    for flag in (*flags, *_GONE_FLAGS.get(command, ()))
])
def test_no_flag_value_escapes_main(tmp_path, monkeypatch, capsys, command, flag, value):
    # extreme values once escaped as OverflowError and ZeroDivisionError tracebacks
    monkeypatch.chdir(tmp_path)
    base, _ = _UNIT_FLAG_COMMANDS[command]
    out = ["--out", "o.csv"] if base[0] == "run" else []
    code = main([*base, *out, flag, value])
    if flag in _GONE_FLAGS.get(command, ()):
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
    else:
        assert code in (0, 2)


_FUZZ_NUMBERS = st.sampled_from([0, 1, -1, 1e300, -1e300, 10**400, -10**400,
                                  math.nan, math.inf, -math.inf])
_FUZZ_SCALARS = _FUZZ_NUMBERS | st.sampled_from([
    None, True, False, "", "a", "free_eg", "switch_off", "zeno_sweep", "e1g2", "J", "C",
])
# numbers and the run-value fields are drawn most often, as that is where a
# number can go wrong
_FUZZ_VALUES = (_FUZZ_NUMBERS | _FUZZ_SCALARS | st.lists(_FUZZ_SCALARS, max_size=3)
                | st.dictionaries(st.sampled_from(["a", "J"]), _FUZZ_SCALARS, max_size=2))
_FUZZ_FIELDS = (st.sampled_from(["omega0", "J", "Omega", "gamma", "delta_l", "horizon"])
                | st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(_FUZZ_FIELDS, _FUZZ_VALUES, min_size=1, max_size=3))
def test_no_config_document_escapes_main(tmp_path, monkeypatch, fields):
    # a 400-digit integer once escaped as an OverflowError traceback; json writes
    # NaN and inf as its NaN and Infinity literals
    monkeypatch.chdir(tmp_path)
    doc = {"scenario": "free_eg", "samples": 11, "out": "o.csv", **fields}
    if doc["samples"] is None:  # null would run the preset's own 2001 samples
        doc["samples"] = 11
    (tmp_path / "c.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "c.json"]) in (0, 2, 4)


_ARGV_NUMBERS = st.sampled_from([
    "0", "1", "-1", "1e-9", "25ns", "1us", "1e6", "4e9", "1e300", "-1e300", "1" + "0" * 400,
    "nan", "inf", "-inf", "a",
])
_ARGV_NAMES = st.sampled_from(["", "a", "e1g2", "s", "L1L2", "C", "rho_ss", "C,rho_ss", "J"])
_ARGV_FLAGS = st.one_of(
    st.tuples(st.sampled_from(["--omega0", "--J", "--Omega", "--gamma", "--delta-l",
                               "--horizon"]), _ARGV_NUMBERS),
    st.tuples(st.sampled_from(["--initial", "--observables"]), _ARGV_NAMES),
    st.tuples(st.just("--rhs"), st.sampled_from(["derived", "published"])),
)
_ARGV_SCENARIOS = st.sampled_from([sc.name for sc in catalog()] + ["bogus"])


@st.composite
def run_argvs(draw):
    """A `run` argv over the flags of the config fuzzer: a preset or none,
    up to three run flags, and each of --samples, --driven and --sweep
    perhaps.  So that each example stays short, --samples is 2..40 or a bad
    value and a sweep has 1..3 values: a walked grid holds at most 40
    samples, past a switch-off point's 3001-sample trigger probe, unless
    --samples is left out and the preset's own grid (at most 5001) is run."""
    argv = ["run", "--out", "o.csv"]
    if draw(st.integers(0, 3)):  # mostly a preset, as a custom run needs three flags
        argv += ["--scenario", draw(_ARGV_SCENARIOS)]
    for flag, value in draw(st.lists(_ARGV_FLAGS, max_size=3)):
        argv += [flag, value]
    if draw(st.integers(0, 3)):  # mostly bounded, as a preset's grid costs the most
        argv += ["--samples", draw(st.sampled_from(["0", "1", "-1", "2.5", "a"])
                                   | st.integers(2, 40).map(str))]
    if draw(st.booleans()):
        argv.append("--driven")
    if draw(st.booleans()):
        field = draw(st.sampled_from(["omega0", "J", "gamma", "Omega", "delta_l", "horizon"]))
        values = draw(st.lists(_ARGV_NUMBERS, min_size=1, max_size=3))
        argv += ["--sweep", f"{field}={','.join(values)}"]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_argvs())
def test_no_run_argv_escapes_main(monkeypatch, capsys, argv):
    # every run argv either writes its files or exits with one error line,
    # no warning, and none of its files left behind
    with tempfile.TemporaryDirectory() as directory:
        monkeypatch.chdir(directory)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 4)
        assert caught == []
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, err
        if code != 0:
            assert os.listdir(directory) == []


# ---------------------------------------------------------------------------
# the process entry

@pytest.mark.parametrize("argv, code", [(["catalog"], 0), (["zeno"], 2)])
def test_entry_exits_with_the_code_of_main_and_a_frozen_collector(monkeypatch, argv, code):
    before = gc.get_freeze_count()
    monkeypatch.setattr(sys, "argv", ["qdimer", *argv])
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert exited.value.code == code


def test_main_leaves_the_collector_alone():
    before = gc.get_freeze_count()
    assert main(["catalog"]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_runs_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"qdimer": "qdimer.cli:entry"}


@pytest.mark.parametrize("argv, code, stderr", [
    (["catalog"], 0, ""),
    (["zeno", "--tau", "1e-13", "--N", "0"], 2,
     "error: need at least one measurement, got 0\n"),
    (["zeno", "--tau", "1e-13", "--N", "10", "--out", "."], 4,
     "error: [Errno 21] Is a directory: '.'\n"),
], ids=["ok", "bad-value", "unwritable"])
def test_process_exit_is_clean_under_dev_mode(tmp_path, argv, code, stderr):
    # -X dev reports unclosed files and other resource warnings, which shutdown
    # would print after main returns
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    run = subprocess.run([sys.executable, "-X", "dev", "-m", "qdimer.cli", *argv],
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (code, stderr)


# ---------------------------------------------------------------------------
# dependencies

def test_cli_imports_only_numpy_and_the_standard_library():
    # site .pth files may import packages of their own at start-up, so the
    # baseline is what a bare `import numpy` loads, not a fixed list
    probe = "import sys, {}; print(*{{m.partition('.')[0] for m in sys.modules}})"
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

    def loaded(module):
        run = subprocess.run([sys.executable, "-c", probe.format(module)], env=env,
                             capture_output=True, text=True, check=True)
        return set(run.stdout.split())

    extra = loaded("qdimer.cli") - loaded("numpy")
    assert extra - set(sys.stdlib_module_names) == {"qdimer"}, sorted(extra)


# the modules that only some commands need; every command needs the preset list,
# and so scenarios, integrate, concurrence, states and zeno
ON_DEMAND = ("json", "qdimer.audit", "qdimer.csvtext", "qdimer.figures", "qdimer.physics")


@pytest.mark.parametrize("argv, needs", [
    (["run", "--scenario", "free_eg", "--out", "r.csv"], {"qdimer.csvtext"}),
    (["catalog"], set()),
    (["zeno", "--tau", "0.01ns", "--N", "10"], set()),
    (["zeno", "--tau", "0.01ns", "--N", "10", "--out", "z.csv"], {"qdimer.csvtext"}),
    (["audit"], {"qdimer.audit"}),
    (["constants", "--d0", "1.46D", "--r", "10nm"], {"qdimer.physics"}),
    (["plot", "--figure", "fig5b", "--csv", "in.csv", "--out", "s.gp"], {"qdimer.figures"}),
    (["run", "--scenario", "free_eg", "--out", "r.csv", "--save-config", "saved.json"],
     {"json", "qdimer.csvtext"}),
    (["run", "--config", "in.json"], {"json", "qdimer.csvtext"}),
], ids=["run", "catalog", "zeno", "zeno-out", "audit", "constants", "plot", "save-config",
        "config"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, needs):
    emit_csv(ObservableTable(np.array([0.0, 1e-9]), ("C",), np.zeros((2, 1))),
             str(tmp_path / "in.csv"))
    (tmp_path / "in.json").write_text('{"scenario": "free_eg", "samples": 11, "out": "c.csv"}')
    # what site start-up loaded on its own is not the command's doing
    probe = ("import sys\n"
             "start = set(sys.modules)\n"
             "from qdimer.cli import main\n"
             "code = main(sys.argv[1:])\n"
             f"print(code, *sorted(m for m in {ON_DEMAND} if m in set(sys.modules) - start))\n"
             f"print(*sorted(m for m in {ON_DEMAND} if m in start))\n")
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    run = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    code, *loaded = run.stdout.splitlines()[-2].split()
    preloaded = set(run.stdout.splitlines()[-1].split())
    assert (code, sorted(loaded)) == ("0", sorted(needs - preloaded)), run.stderr
