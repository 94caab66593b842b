import importlib.util
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


def test_layer_timer_runs_the_switch_off_walk():
    # the switch-off walk, trigger probe included, is built by the package's one walk builder
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "layers.py"), "switch_off"],
                         env={**os.environ, "PYTHONPATH": SRC}, check=True,
                         capture_output=True, text=True)
    entry = json.loads(run.stdout)["switch_off"]
    assert sorted(entry) == ["C_s", "emit_csv_s", "observables_s", "run_scenario_s",
                             "superoperator_s", "walk_s"]
    assert sorted(entry["observables_s"]) == ["re_rho23", "rho22", "rho33", "rho44", "rho_aa",
                                              "rho_ss"]
    assert min(entry.pop("observables_s").values()) > 0.0
    assert min(entry.values()) > 0.0


def test_bench_counts_a_tier1_run_from_the_tree_root(tmp_path):
    # one passing and one failing test, the passing one importing from the tree's
    # src, and a module that fails to import, which pytest reports as one error
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tree_marker.py").write_text("VALUE = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_two.py").write_text(
        "import tree_marker\n\n\n"
        "def test_passes():\n    assert tree_marker.VALUE == 1\n\n\n"
        "def test_fails():\n    assert False\n")
    (tmp_path / "tests" / "test_unimportable.py").write_text(
        "import no_such_module_anywhere\n\n\n"
        "def test_hidden():\n    pass\n")
    spec = importlib.util.spec_from_file_location("bench", os.path.join(TOOLS, "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    result = bench.tier1(str(tmp_path / "src"))
    assert sorted(result) == ["errors", "failed", "passed", "wall_s"]
    assert (result["passed"], result["failed"], result["errors"]) == (1, 1, 1)
    assert result["wall_s"] > 0.0
