"""Benchmark of the qdimer command line, driven the way a user drives it.

    python3 perfbench/run.py --workload free_dense --seed 1 --seconds 60 --trace 0

One client, one CLI process at a time, in a closed loop: each pass runs the
workload's invocations (``python -m qdimer.cli ...`` with PYTHONPATH=src) one
after another, and every output is checked against an exact reference.
Passes repeat, pair by pair (below), while the next pair still fits in
--seconds.  Run from the repository root.

Each invocation is paired with the same invocation of perfbench/frozen, a
copy of the package as it was when the benchmark was written, run right
before or right after it (the order alternates).  This host's speed swings
by up to 2x within seconds and by a quarter from one minute to the next; both
sides of a pair see the same swings, so their ratio holds still where either
wall time does not.

--trace 0 reports the end-to-end metrics: the program's wall time summed over
all pairs over the frozen copy's (wall_ratio); the set-up time, from a fresh
``qdimer catalog`` (interpreter start plus ``import qdimer``) timed in a pair
with the frozen copy's before every pair, as SETUP_SCALE_S times the median
ratio (setup_s); and the median over passes of the largest resident set of
any CLI process (peak_rss_mb).

--trace 1 runs each invocation twice, back to back: once untraced, once
under perfbench/tracer.py, which calls the CLI in-process with timing spans
around every layer; it reports the per-layer metrics.

Metric names and units come from BENCHMARK.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A failed
operation is a non-zero exit, a missing or misshapen output, or an output
that fails its check; failures are counted, never special-cased by exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = HERE / "frozen"  # the package when the benchmark was written
WORK = ROOT / ".perfbench_work"
# setup_s is this many seconds times the median, over the pairs of a run, of
# the program's `catalog` wall time over the frozen copy's: set-up time at
# the frozen copy's typical set-up time on the 2-vCPU host of BASELINE.json.
# Raw set-up medians of whole runs moved by up to 45% between half-hours.
SETUP_SCALE_S = 0.27
RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever --seconds says


@dataclass
class Outcome:
    argv: tuple[str, ...]
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


class Runner:
    """Launches CLI processes through launcher.py, counts operations and
    collects problems.  Close it to stop the launcher."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.reference_failed = 0
        self.problems: list[str] = []
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.stdout.close()
        self._launcher.wait()

    def launch(self, cmd: list[str], argv: tuple[str, ...], out_dir: Path,
               pythonpath: Path = SRC) -> Outcome:
        """Run one process to completion and read back what it printed."""
        out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
        request = {
            "cmd": cmd,
            "pythonpath": str(pythonpath),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(1.0, self.deadline - time.perf_counter()),
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return Outcome(
            argv=argv,
            wall_s=reply["wall_s"],
            rss_mb=reply["rss_mb"],
            returncode=reply["returncode"],
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def run_pass(self, calls, out_dir: Path, spans: list[Path] | None = None,
                 frozen: bool = False, checked: bool = True) -> Pass:
        """Run `calls` back to back, then check each output (untimed).

        With `spans` (one file per call), each call runs under tracer.py.
        With `frozen`, the calls run the frozen copy.  With `checked` false,
        the caller checks the outcomes later.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        outcomes = []
        start = time.perf_counter()
        for k, inv in enumerate(calls):
            if spans is None:
                cmd = [sys.executable, "-m", "qdimer.cli", *inv.argv]
            else:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans[k]), "--", *inv.argv]
            outcomes.append(self.launch(cmd, inv.argv, out_dir, FROZEN if frozen else SRC))
        wall = time.perf_counter() - start
        if checked:
            for inv, outcome in zip(calls, outcomes):
                self.check(inv, outcome, frozen)
        return Pass(wall, outcomes)

    def check(self, inv, outcome: Outcome, frozen: bool = False) -> None:
        """Count one operation and its problems.

        Of the frozen copy only the exit code is checked, and a failure there
        spoils the run without counting as a failed operation of the program.
        """
        if outcome.returncode != 0:
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {outcome.returncode}: {tail[0]}"]
        else:
            problems = [] if frozen else inv.check(outcome.stdout)
        who = "frozen copy, " if frozen else ""
        self.problems += [f"{who}{' '.join(inv.argv[:3])}: {p}" for p in problems]
        if frozen:
            self.reference_failed += bool(problems)
        else:
            self.attempted += 1
            self.failed += bool(problems)


def traced_layers(spans: list[Path]) -> dict[str, float]:
    """Sum the tracer's per-invocation span files into flat metric values."""
    flat: dict[str, float] = {"import.s": 0.0}
    for path in spans:
        if not path.is_file():
            continue  # that invocation failed and is already counted
        doc = json.loads(path.read_text(encoding="utf-8"))
        flat["import.s"] += doc["import_s"]
        for name, value in doc["self_s"].items():
            key = f"{name}.self_s"
            flat[key] = flat.get(key, 0.0) + value
        for name, value in doc["calls"].items():
            flat[f"{name}.calls"] = flat.get(f"{name}.calls", 0) + value
        for name, value in doc["counters"].items():
            flat[name] = flat.get(name, 0) + value
    # leaf layers are named <module>.<function>.s; their self time is all of it
    for key in [k for k in flat if k.endswith(".self_s")]:
        flat[key[: -len("self_s")] + "s"] = flat[key]
    return flat


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def measure(wl, workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            runner: Runner, work: Path) -> dict:
    build = wl.WORKLOADS[workload]
    # fill both packages' bytecode caches
    warm = [runner.run_pass([wl.catalog_invocation()], work / "warm", frozen=frozen)
            for frozen in (False, True)]
    if any(w.outcomes[0].returncode != 0 for w in warm):
        return finish(runner, spec, {}, trace)
    loop_start = time.perf_counter()

    def fits(expected: float) -> bool:
        """Whether work of `expected` seconds still fits in the run."""
        now = time.perf_counter()
        return now - loop_start + expected <= seconds and now + expected < runner.deadline

    if not trace:
        pairs: list[tuple[float, float]] = []  # (program, frozen copy) wall times
        setup: list[tuple[float, float]] = []  # the same, of `catalog`
        rss: list[float] = []  # per whole pass
        rss_cut: list[float] = []  # per pass cut short, used only if none is whole
        last: dict[int, float] = {}  # each invocation's last time, set-up pair included
        pass_no = 0
        while fits(last.get(0, 0.0)):
            out = work / f"pass{pass_no}"
            calls = build(seed, str(out / "program"))
            copies = build(seed, str(out / "frozen"))
            rss_pass, whole = 0.0, True
            for k, (call, copy) in enumerate(zip(calls, copies)):
                if not fits(last.get(k, 0.0)):
                    whole = False
                    break
                start = time.perf_counter()
                catalog = wl.catalog_invocation()
                program, frozen = timed_pair(runner, catalog, catalog, work / "setup", pass_no + k)
                setup.append((program.wall_s, frozen.wall_s))
                program, frozen = timed_pair(runner, call, copy, out, pass_no + k)
                pairs.append((program.wall_s, frozen.wall_s))
                last[k] = time.perf_counter() - start
                rss_pass = max(rss_pass, program.rss_mb)
            if rss_pass:
                (rss if whole else rss_cut).append(rss_pass)
            shutil.rmtree(out, ignore_errors=True)
            pass_no += 1
        samples = {
            "wall_ratio": [p / f for p, f in pairs],
            "setup_s": [SETUP_SCALE_S * p / f for p, f in setup],
            "peak_rss_mb": rss or rss_cut,
        }
        program_s, frozen_s = sum(p for p, _ in pairs), sum(f for _, f in pairs)
        print(f"{'program wall_s, all pairs':34s} {program_s:.6g} s  frozen copy {frozen_s:.6g} s"
              f"  pairs={len(pairs)}")
        print(f"{'catalog wall_s, medians':34s} {median([p for p, _ in setup]):.6g} s"
              f"  frozen copy {median([f for _, f in setup]):.6g} s")
        return finish(runner, spec, samples, trace, {"wall_ratio": program_s / frozen_s})

    untraced: list[Pass] = []
    layers: list[dict[str, float]] = []
    while fits(mean([p.wall_s + f["trace.wall_s"] for p, f in zip(untraced, layers)])):
        k = len(layers)
        plain, traced, flat = paired_round(runner, build, seed, work / f"round{k}", k)
        flat["trace.wall_s"] = traced.wall_s
        flat["trace.overhead_s"] = traced.wall_s - plain.wall_s
        accounted = sum(v for key, v in flat.items() if key.endswith(".self_s"))
        flat["trace.remainder_s"] = traced.wall_s - flat["import.s"] - accounted
        untraced.append(plain)
        layers.append(flat)
    samples = {m["name"]: [f.get(m["name"], 0.0) for f in layers] for m in spec["per_layer"]}
    samples["cli.sweep_jobs2_over_jobs1"] = jobs_ratio(wl, runner, seed, untraced, work)
    return finish(runner, spec, samples, trace)


def timed_pair(runner: Runner, call, copy, out: Path, turn: int) -> tuple[Pass, Pass]:
    """Run one invocation of the program and the same one of the frozen copy
    back to back, the program first on even turns; then check both.

    Returns the program's pass and the copy's, one invocation each.
    """
    sides = [(call, out / "program", False), (copy, out / "frozen", True)]
    done = {}
    for inv, where, frozen in (sides if turn % 2 == 0 else sides[::-1]):
        done[frozen] = runner.run_pass([inv], where, frozen=frozen, checked=False)
    for inv, _, frozen in sides:
        runner.check(inv, done[frozen].outcomes[0], frozen)
    return done[False], done[True]


def joined(parts: list[Pass]) -> Pass:
    return Pass(sum(p.wall_s for p in parts), [o for p in parts for o in p.outcomes])


def interleaved(round_no: int, count: int, one, other) -> None:
    """Call one(k) and other(k) back to back for each k < count.

    Which goes first alternates from pair to pair and round to round, so
    that the machine's speed drift falls on both sides alike.
    """
    for k in range(count):
        for side in ((one, other) if (round_no + k) % 2 == 0 else (other, one)):
            side(k)


def paired_round(runner: Runner, build, seed: int, out: Path,
                 round_no: int) -> tuple[Pass, Pass, dict[str, float]]:
    """One untraced and one traced pass, interleaved invocation by invocation.

    Returns the untraced pass, the traced pass and the traced layer values.
    """
    plain_calls = build(seed, str(out / "plain"))
    traced_calls = build(seed, str(out / "traced"))
    spans = [out / f"spans{k}.json" for k in range(len(traced_calls))]
    plain: list[Pass] = []
    traced: list[Pass] = []
    interleaved(
        round_no, len(plain_calls),
        lambda k: plain.append(runner.run_pass([plain_calls[k]], out / "plain")),
        lambda k: traced.append(runner.run_pass([traced_calls[k]], out / "traced", [spans[k]])),
    )
    flat = traced_layers(spans)
    shutil.rmtree(out)
    return joined(plain), joined(traced), flat


def jobs_ratio(wl, runner: Runner, seed: int, untraced: list[Pass], work: Path) -> list[float]:
    """Wall time of the workload's sweep with --jobs 2 over that with --jobs 1.

    No sample when the workload has no sweep or the CLI no longer takes --jobs.
    """
    jobs1 = [o.wall_s for p in untraced for o in p.outcomes if "--sweep" in o.argv]
    if not jobs1:
        return []
    usage = runner.launch([sys.executable, "-m", "qdimer.cli", "run", "--help"],
                          ("run", "--help"), work)
    if "--jobs" not in usage.stdout:
        return []
    out = work / "jobs2"
    sweep = wl.sweep_invocation(seed, str(out), "detuned_jobs2")
    jobs2 = runner.run_pass([replace(sweep, argv=sweep.argv + ("--jobs", "2"))], out)
    shutil.rmtree(out)
    return [jobs2.wall_s / median(jobs1)]


def finish(runner: Runner, spec: dict, samples: dict[str, list[float]], trace: bool,
           totals: dict[str, float] | None = None) -> dict:
    """Print each metric with its samples; return the result object.

    A metric is the median of its samples unless `totals` gives its value.
    """
    totals = totals or {}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name, [])
        stat = "total" if name in totals else "median"
        metrics[name] = totals.get(name, median(values))
        shown = " ".join(f"{v:.4g}" for v in values[:12])
        print(f"{name:34s} {stat:6s} {metrics[name]:12.6g} {unit:5s} n={len(values)}  [{shown}]")
    attempted, failed = runner.attempted, runner.failed
    print(f"{'fail_ratio':34s} {failed}/{attempted} = {failed / attempted:.6g}")
    if not trace:
        print("no tail percentile: none has 10 samples beyond it at these pass counts")
    return {
        "correct": failed == 0 and runner.reference_failed == 0 and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not (SRC / "qdimer" / "cli.py").is_file():
        print(f"error: no qdimer package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    runner = Runner(deadline)  # before numpy and scipy load, see launcher.py
    sys.path.insert(0, str(SRC))
    import workloads

    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result = measure(workloads, args.workload, args.seed, args.seconds,
                         bool(args.trace), spec, runner, work)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still owns a directory in it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
