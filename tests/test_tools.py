import json
import os
import subprocess
import sys

import qdimer

SRC = os.path.dirname(os.path.dirname(qdimer.__file__))
TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def test_bench_quick_run_of_a_tree_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text('{"perfbench": {"kept": true}}\n')  # a section the tool does not write
    subprocess.run([sys.executable, os.path.join(TOOLS, "bench.py"), "--parent", SRC,
                    "--change", SRC, "--out", str(out), "--quick"],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert sorted(record) == ["host", "layers", "perfbench", "presets"]
    assert record["perfbench"] == {"kept": True}
    assert sorted(record["host"]) == ["PYTHONDONTWRITEBYTECODE", "cpus", "machine", "numpy",
                                      "python"]
    presets = record["presets"]
    assert sorted(presets) == ["change", "command", "order", "parent"]
    for side in ("parent", "change"):
        assert list(presets[side]) == ["free_eg"]
        entry = presets[side]["free_eg"]
        assert sorted(entry) == ["max_rss_mb", "max_s", "median_rss_mb", "median_s",
                                 "min_rss_mb", "min_s", "runs"]
        assert entry["runs"] == 1
        assert entry["min_s"] == entry["median_s"] == entry["max_s"] > 0.0
        assert entry["min_rss_mb"] == entry["median_rss_mb"] == entry["max_rss_mb"] > 0.0
    layers = record["layers"]
    assert sorted(layers) == ["change", "command", "order", "parent"]
    for side in ("parent", "change"):
        assert sorted(layers[side]) == ["import_qdimer_cli_s", "presets"]
        assert sorted(layers[side]["import_qdimer_cli_s"]) == ["max_s", "median_s", "min_s",
                                                               "runs"]
        assert layers[side]["import_qdimer_cli_s"]["median_s"] > 0.0
        assert list(layers[side]["presets"]) == ["free_eg"]
        entry = layers[side]["presets"]["free_eg"]
        assert sorted(entry) == ["C_s", "emit_csv_s", "observables_s", "run_scenario_s",
                                 "superoperator_s", "walk_s"]
        assert sorted(entry["observables_s"]) == ["rho11", "rho22", "rho33", "rho44", "rho_ff",
                                                  "rho_kk"]
        assert min(entry.pop("observables_s").values()) > 0.0
        assert min(entry.values()) > 0.0
