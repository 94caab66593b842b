"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest perfbench -q

Each check must accept what the CLI writes today and count a perturbed or
missing output as a failed operation.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def runner():
    r = run.Runner(deadline=time.perf_counter() + 120.0)
    yield r
    r.close()


def perturb(path: Path, row: int, column: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = f"{float(cells[column]) + delta:.16e}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_free_output_passes_and_perturbed_csv_counts_as_failed(runner, tmp_path):
    free_eg = workloads.free_dense(0, str(tmp_path))[0]
    runner.run_pass([free_eg], tmp_path / "out")
    assert (runner.attempted, runner.failed) == (1, 0), runner.problems

    csv = tmp_path / "free_eg.csv"
    perturb(csv, row=1000, column=2, delta=1e-5)  # rho22, mid-run
    assert any("rho22" in p for p in free_eg.check(""))
    # the same perturbed file, checked as part of a pass, is one failed operation
    reread = workloads.Invocation(("catalog",), free_eg.check)
    runner.run_pass([reread], tmp_path / "again")
    assert (runner.attempted, runner.failed) == (2, 1)


def test_sweep_output_passes_and_perturbed_point_fails(runner, tmp_path):
    sweep = workloads.sweep_invocation(3, str(tmp_path))
    runner.run_pass([sweep], tmp_path / "out")
    assert runner.failed == 0, runner.problems

    index = (tmp_path / "detuned.index.csv").read_text(encoding="utf-8").splitlines()
    point = Path(index[2].split(",", 2)[2])
    perturb(point, row=500, column=7, delta=1e-3)  # C
    assert any("C off its reference" in p for p in sweep.check(""))
    point.unlink()
    assert any("missing" in p for p in sweep.check(""))


def test_zeno_output_passes_and_perturbed_survival_fails(runner, tmp_path):
    zeno = workloads.analysis_session(0, str(tmp_path))[2]
    runner.run_pass([zeno], tmp_path / "out")
    assert runner.failed == 0, runner.problems
    perturb(tmp_path / "zeno.csv", row=5000, column=1, delta=1e-7)
    assert zeno.check("")


def test_switch_off_output_passes_and_perturbed_late_row_fails(runner, tmp_path):
    switch_off = workloads.switch_off_invocation(str(tmp_path))
    runner.run_pass([switch_off], tmp_path / "out")
    assert runner.failed == 0, runner.problems
    # row 2500 is long after the switch (~28 ns of 500 ns), in the free tail
    perturb(tmp_path / "switch_off.csv", row=2501, column=6, delta=1e-5)  # re_rho23
    assert any("re_rho23 off its reference" in p for p in switch_off.check(""))


def test_switch_off_check_catches_a_missing_switch(tmp_path):
    times = np.linspace(0.0, workloads.SWITCH_OFF_HORIZON, 3001)
    states = workloads.driven_reference(workloads.DRIVE_S, "e1e2", times)
    data = workloads.observables(states, workloads.PAIR_DETAIL)
    path = tmp_path / "never_switched.csv"
    rows = [",".join(f"{v:.16e}" for v in (t, *row)) for t, row in zip(times, data)]
    header = ",".join(("t_s",) + workloads.PAIR_DETAIL)
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    problems = workloads.check_switch_off(str(path))
    assert any("rho44 off its reference" in p for p in problems)


def test_audit_check_reads_the_report():
    good = "published_pop23_diff_drift = 5.7e-14\nderived_pop23_diff_range = 1.99e+00\n"
    assert workloads.check_audit(good) == []
    assert workloads.check_audit(good.replace("5.7e-14", "1.0e-03"))
    assert workloads.check_audit(good.replace("1.99e+00", "0.0e+00"))
    assert workloads.check_audit("")


def test_nonzero_exit_counts_as_failed(runner, tmp_path):
    bad = workloads.Invocation(("run", "--scenario", "no_such_preset", "--out", "x.csv"),
                               lambda _: [])
    runner.run_pass([bad], tmp_path / "out")
    assert runner.failed == 1
    assert "exit code 2" in runner.problems[0]


def test_frozen_copy_runs_and_its_failure_spoils_the_run(runner, tmp_path):
    free_eg = workloads.free_dense(0, str(tmp_path))[0]
    copy = runner.run_pass([free_eg], tmp_path / "out", frozen=True)
    assert copy.outcomes[0].returncode == 0
    assert (runner.attempted, runner.failed, runner.reference_failed) == (0, 0, 0)
    assert (tmp_path / "free_eg.csv").is_file()

    bad = workloads.Invocation(("run", "--scenario", "no_such_preset", "--out", "x.csv"),
                               lambda _: [])
    runner.run_pass([bad], tmp_path / "out", frozen=True)
    assert (runner.attempted, runner.failed, runner.reference_failed) == (0, 0, 1)
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s"}]}
    runner.attempted = 1  # finish() divides by it
    assert not run.finish(runner, spec, {"setup_s": [0.3]}, False)["correct"]


def test_tracer_spans_account_for_the_invocation(runner, tmp_path):
    free_eg = workloads.free_dense(0, str(tmp_path))[0]
    spans = tmp_path / "spans0.json"
    traced = runner.run_pass([free_eg], tmp_path, [spans])
    assert runner.failed == 0, runner.problems
    flat = run.traced_layers([spans])
    assert flat["integrate.integrate.calls"] == 1
    assert flat["liouville.superoperator.calls"] == 1
    assert flat["integrate.steps_accepted"] > 0
    assert flat["concurrence.concurrence.calls"] == 2001
    assert flat["cli.emit_csv.bytes"] == (tmp_path / "free_eg.csv").stat().st_size
    accounted = flat["import.s"] + sum(v for k, v in flat.items() if k.endswith(".self_s"))
    assert 0.0 < accounted < traced.wall_s
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert set(doc["self_s"]) == {
        "cli.main", "scenarios.run_scenario", "integrate.integrate",
        "liouville.superoperator", "concurrence.concurrence", "cli.emit_csv",
    }
