"""Record the benchmark's numbers for the current checkout.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Records two sets of runs with tracing off, each of seeds 1..10 on every
workload.  The sets are interleaved (seed by seed, then set by set, then
workload by workload), so slow spells of the machine fall on all of them
alike.  Then runs each workload once with tracing on, seed 1.  Writes machine
information, every run's result, and per end-to-end metric and set the
median, the quartiles and the spread (quartile distance over the median, from
statistics.quantiles(n=4)), plus how far the second set's median lies from
the first's.  Run from the repository root; it takes about 2 x 10 x
workloads x (run_seconds + 5) seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = time.perf_counter() - start
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    print(workload, seed, trace, json.dumps(result), flush=True)
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    runs = [{name: [] for name in names} for _ in range(SETS)]
    for seed in SEEDS:
        for one_set in runs:
            for name in names:
                one_set[name].append(run_once(spec, name, seed, 0))
    traced = {name: run_once(spec, name, 1, 1) for name in names}

    import numpy
    import scipy

    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "trace_seed": 1,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        attempted = sum(r["attempted"] for one_set in runs for r in one_set[name])
        failed = sum(r["failed"] for one_set in runs for r in one_set[name])
        end_to_end = {}
        for m in spec["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]] for r in one_set[name]]) for one_set in runs]
            end_to_end[m["name"]] = {
                "unit": m["unit"],
                "sets": sets,
                "second_over_first": sets[1]["median"] / sets[0]["median"] - 1.0,
            }
        doc["workloads"][name] = {
            "why": w["why"],
            "fail_ratio": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced[name]["metrics"],
            "runs": [one_set[name] for one_set in runs],
            "traced_run": {k: v for k, v in traced[name].items() if k != "metrics"},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
