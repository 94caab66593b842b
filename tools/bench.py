"""Time qdimer from two source trees, side by side: whole processes and layers.

Usage: python tools/bench.py --parent SRC --change SRC --out BENCH_<n>.json [--quick]

SRC is the `src` directory of a checkout, from which the package is imported
(as in tools/cli_snapshot.py).  Each command runs as `python -m qdimer.cli ...`
in a temporary directory: `catalog`, and `run --scenario <p> --out out.csv`
for every preset that the change tree's `catalog` lists.  A round runs every
command on both trees, back to back, and the tree that goes first alternates
by round.  For each tree and command the output records the median, min and
max of the wall time and of the peak resident set over 7 rounds.

The layers of each run are timed inside a process: each round runs
tools/layers.py once per tree, in the same alternating order, and the output
records the median over rounds of each preset's superoperator build, walk,
observable columns (C apart), whole run_scenario and emit_csv.  The same
rounds time `import qdimer.cli` in fresh interpreters, after numpy is
imported.  Last, the Tier-1 suite runs once per tree, from the tree's root
(the parent of SRC), and the output records its wall time and its passed,
failed and error counts.  --quick runs one round of the `free_eg` preset
alone and no Tier-1, as a check that the tool works.

The output is a JSON object with four sections, `host`, `presets`, `layers`
and `tier1`.  If OUT already holds a JSON object, its other sections are kept,
so the sections a benchmark record adds by other means survive a rerun.

Only the standard library is imported, so this process stays small.  That
matters for the peak resident set: Linux starts a child's ru_maxrss at the
resident set of whatever spawned it, so a spawner that held numpy would make
every child read at least that large (see perfbench/launcher.py).  The wall
time runs from just before the child is spawned until os.wait4 reaps it, and
so includes interpreter start and exit.  A command that exits nonzero stops
the tool with its stderr.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROUNDS = 7
LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.py")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
IMPORT_CLI = ("import time, numpy; start = time.perf_counter(); import qdimer.cli; "
              "print(time.perf_counter() - start)")


def spawn(src: str, args: list[str], cwd: str) -> tuple[float, float]:
    """Wall time (s) and peak resident set (MB) of one `python -m qdimer.cli` process."""
    env = {**os.environ, "PYTHONPATH": src}
    with open(os.path.join(cwd, "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qdimer.cli", *args], cwd=cwd,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            raise SystemExit(f"{' '.join(args)} exited {code} on {src}:\n"
                             + err.read().decode(errors="replace"))
    # Linux reports ru_maxrss in KiB
    return wall, usage.ru_maxrss / 1024.0


def presets(src: str) -> list[str]:
    listing = subprocess.run([sys.executable, "-m", "qdimer.cli", "catalog"],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
    return [line.split(":")[0] for line in listing.stdout.splitlines()]


def summary(walls: list[float], rss: list[float]) -> dict[str, float | int]:
    return {"median_s": statistics.median(walls), "min_s": min(walls), "max_s": max(walls),
            "median_rss_mb": statistics.median(rss), "min_rss_mb": min(rss),
            "max_rss_mb": max(rss), "runs": len(walls)}


def host() -> dict[str, object]:
    # the installed version, read without importing numpy
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "machine": f"{platform.system()} {platform.machine()}",
            "cpus": len(os.sched_getaffinity(0)),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def child_output(src: str, args: list[str]) -> str:
    """The stdout of one python process that imports the package from `src`."""
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


def medians(runs: list[dict]) -> dict:
    """Key by key, the median over runs of the same nested shape."""
    return {key: medians([run[key] for run in runs]) if isinstance(value, dict)
            else statistics.median(run[key] for run in runs)
            for key, value in runs[0].items()}


def measure_layers(trees: dict[str, str], names: list[str], rounds: int) -> dict:
    runs = {side: [] for side in trees}
    imports = {side: [] for side in trees}
    sides = list(trees)
    for r in range(rounds):
        for side in (sides if r % 2 == 0 else sides[::-1]):
            runs[side].append(json.loads(child_output(trees[side], [LAYERS, *names])))
            imports[side].append(float(child_output(trees[side], ["-c", IMPORT_CLI])))
    return {side: {"import_qdimer_cli_s": {"median_s": statistics.median(imports[side]),
                                           "min_s": min(imports[side]),
                                           "max_s": max(imports[side]),
                                           "runs": rounds},
                   "presets": medians(runs[side])}
            for side in sides}


def measure(trees: dict[str, str], commands: dict[str, list[str]], rounds: int) -> dict:
    walls = {side: {name: [] for name in commands} for side in trees}
    rss = {side: {name: [] for name in commands} for side in trees}
    sides = list(trees)
    with tempfile.TemporaryDirectory() as cwd:
        for r in range(rounds):
            order = sides if r % 2 == 0 else sides[::-1]
            for name, args in commands.items():
                for side in order:
                    wall, peak = spawn(trees[side], args, cwd)
                    walls[side][name].append(wall)
                    rss[side][name].append(peak)
    return {side: {name: summary(walls[side][name], rss[side][name]) for name in commands}
            for side in sides}


def tier1(src: str) -> dict[str, float | int]:
    """Wall time and passed, failed and error counts of one Tier-1 run, from the
    root of the tree whose `src` directory is given, with `src` first on
    PYTHONPATH."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=os.path.dirname(src),
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode not in (0, 1):  # 1: some tests failed
        raise SystemExit(f"Tier-1 exited {done.returncode} on {src}:\n{done.stdout}{done.stderr}")
    # the last line of -q output, e.g. "3 failed, 824 passed, 1 error in 45.12s"; a
    # module that fails to import counts as one error, however many tests it holds
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|error)", done.stdout.splitlines()[-1])}
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="src directory of the parent tree")
    parser.add_argument("--change", required=True, help="src directory of the changed tree")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--quick", action="store_true",
                        help="one round of the free_eg preset alone, and no Tier-1")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    names = ["free_eg"] if args.quick else presets(trees["change"])
    commands = {} if args.quick else {"catalog": ["catalog"]}
    commands.update({name: ["run", "--scenario", name, "--out", "out.csv"] for name in names})
    rounds = 1 if args.quick else ROUNDS

    record: dict[str, object] = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["host"] = host()
    record["presets"] = {
        "command": "python -m qdimer.cli catalog, and python -m qdimer.cli run --scenario "
                   "<preset> --out <csv>; wall time and ru_maxrss of the whole process",
        "order": f"{rounds} round(s); each round runs every command on both trees, back to "
                 "back, the first tree alternating by round",
        **measure(trees, commands, rounds),
    }
    record["layers"] = {
        "command": "python tools/layers.py <presets> (seconds inside one process, after an "
                   "untimed pass over the presets), and python -c 'import numpy; import "
                   "qdimer.cli' timed from after numpy; medians over rounds",
        "order": f"{rounds} round(s); each round runs both on both trees, the first tree "
                 "alternating by round",
        **measure_layers(trees, names, rounds),
    }
    if not args.quick:
        record["tier1"] = {
            "command": f"PYTHONPATH=src python {' '.join(TIER1)}, from the tree's root",
            **{side: tier1(src) for side, src in trees.items()},
            "note": "the whole process's wall time, one run each; this host's speed swings by "
                    "up to 2x, so one run resolves nothing finer than that",
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
