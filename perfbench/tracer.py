"""Run one CLI invocation in this process with timing spans around each layer.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- <qdimer cli args>

Times ``import qdimer.cli``, wraps each module's public functions where the
callers look them up, calls ``qdimer.cli.main(argv)``, writes the per-layer
totals to SPANS.json and exits with main's return code.  Self time of a span
is its duration minus that of the spans it caused, so the self times plus the
import time add up to the time spent inside this script.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

Count = Callable[[Counter, tuple, dict, Any], None]


class Spans:
    """Per-name self time and call counts, plus counters read at the spans."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._main: list[list[float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[float]]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn: Callable, count: Count | None = None) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            # a span opened on a worker thread (the --sweep pool) was caused by
            # whatever the main thread has open while it waits on the pool
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with self._lock:
                    self.self_s[name] += elapsed - children[0]
                    self.calls[name] += 1
                    if parent is not None:
                        parent[0] += elapsed
            if count is not None:
                with self._lock:
                    count(self.counters, args, kwargs, result)
            return result

        return timed


def _count_steps(counters: Counter, args: tuple, kwargs: dict, traj: Any) -> None:
    # step statistics may disappear with an exact propagator: then report 0
    stats = getattr(traj, "stats", None)
    counters["integrate.steps_accepted"] += getattr(stats, "accepted", 0)
    counters["integrate.steps_rejected"] += getattr(stats, "rejected", 0)


def _count_clamped(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["concurrence.clamped"] += int(bool(getattr(result, "clamped", False)))


def _count_bytes(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    counters["cli.emit_csv.bytes"] += os.path.getsize(path)


def _count_measurements(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    protocol = args[0] if args else kwargs.get("protocol")
    counters["zeno.measurements"] += getattr(protocol, "n_measurements", 0)


# (module the name is looked up in, name, span, counter).  Modules come from
# sys.modules: `import qdimer.integrate` would bind the re-exported function.
PATCHES: tuple[tuple[str, str, str, Count | None], ...] = (
    ("qdimer.integrate", "superoperator", "liouville.superoperator", None),
    ("qdimer.scenarios", "integrate", "integrate.integrate", _count_steps),
    ("qdimer.audit", "integrate", "integrate.integrate", _count_steps),
    ("qdimer.scenarios", "concurrence", "concurrence.concurrence", _count_clamped),
    ("qdimer.audit", "concurrence", "concurrence.concurrence", _count_clamped),
    ("qdimer.zeno", "closed_form_free", "integrate.closed_form_free", None),
    ("qdimer.scenarios", "run_zeno", "zeno.run_zeno", _count_measurements),
    ("qdimer.cli", "run_zeno", "zeno.run_zeno", _count_measurements),
    ("qdimer.cli", "run_scenario", "scenarios.run_scenario", None),
    ("qdimer.cli", "consistency_report", "audit.consistency_report", None),
    ("qdimer.cli", "emit_csv", "cli.emit_csv", _count_bytes),
)


def install(spans: Spans) -> None:
    """Wrap every patch target that exists; a removed name is skipped."""
    for module_name, attr, span, count in PATCHES:
        module = sys.modules.get(module_name)
        if module is not None and callable(getattr(module, attr, None)):
            setattr(module, attr, spans.wrap(span, getattr(module, attr), count))


def main() -> int:
    out_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <qdimer cli args>")
    start = time.perf_counter()
    import qdimer.cli

    import_s = time.perf_counter() - start
    spans = Spans()
    install(spans)
    code = spans.wrap("cli.main", qdimer.cli.main)(argv)
    doc = {
        "import_s": import_s,
        "self_s": dict(spans.self_s),
        "calls": dict(spans.calls),
        "counters": dict(spans.counters),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
