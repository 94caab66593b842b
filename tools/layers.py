"""Time each layer of `qdimer run` in one process, for one source tree.

Usage: python tools/layers.py PRESET [PRESET ...]

Imports the package from PYTHONPATH and prints one JSON object to stdout:
for each preset, the seconds each layer took in this process.  Every preset
is run once untimed first, so first-call costs (numpy's dispatch caches, the
lazy import of the CSV writer) stay out of the numbers.  The layers:

* superoperator_s: building the 16x16 generator;
* walk_s: draining the walk that run_scenario takes (for a switch-off
  preset, the trigger search and its three walks: driven up to the trigger,
  the one-sample step to it, and free), keeping every state;
* observables_s: each column but C, evaluated on the whole stack at once;
* C_s: the concurrence column, likewise;
* run_scenario_s: the whole run, which evaluates the columns block by block;
* emit_csv_s: writing the run's table into a temporary directory.

The zeno_sweep preset is a ZenoSweep, which has no walk: it reports only
run_scenario_s, which collects its blocks of closed forms and powers of each
interval's survival as for a walk, and emit_csv_s.  tools/bench.py runs this
script once per tree and round.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import numpy as np

from qdimer import scenarios
from qdimer.cli import emit_csv
from qdimer.integrate import UniformGrid
from qdimer.liouville import superoperator


def timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def walk(sc: scenarios.Scenario) -> list:
    """Every state of the walk run_scenario takes for `sc`."""
    return [states for _, states in
            scenarios._walk(sc, "derived", UniformGrid(sc.horizon, sc.samples))]


def layers(sc: scenarios.Scenario | scenarios.ZenoSweep, out: str) -> dict[str, object]:
    row: dict[str, object] = {}
    if isinstance(sc, scenarios.Scenario):
        row["superoperator_s"], _ = timed(lambda: superoperator("derived", sc.params))
        row["walk_s"], stack = timed(lambda: walk(sc))
        stack = np.concatenate(stack)
        row["observables_s"] = {}
        for name in sc.observables:
            seconds, _ = timed(lambda: scenarios.OBSERVABLES[name](stack))
            if name == "C":
                row["C_s"] = seconds
            else:
                row["observables_s"][name] = seconds
    row["run_scenario_s"], table = timed(lambda: scenarios.run_scenario(sc))
    row["emit_csv_s"], _ = timed(lambda: emit_csv(table, out))
    return row


def main(names: list[str]) -> int:
    presets = {sc.name: sc for sc in scenarios.catalog()}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        for name in names:
            layers(presets[name], out)  # untimed: first calls fill numpy's caches
        json.dump({name: layers(presets[name], out) for name in names}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
