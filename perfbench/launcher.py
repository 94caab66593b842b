"""Spawn processes on request; report each one's wall time, peak RSS and exit code.

Reads one JSON request per stdin line,
    {"cmd": [...], "pythonpath": PATH, "stdout": PATH, "stderr": PATH, "timeout": SECONDS}
and answers each with one JSON line on stdout,
    {"wall_s": ..., "rss_mb": ..., "returncode": ...}.
It exits when stdin closes.  A child that outlives its timeout is killed.

This runs as its own small process because Linux starts a child's peak
resident set (ru_maxrss) at the resident set of whatever spawned it: launched
from the benchmark, which holds numpy and scipy, every child would read as
at least the benchmark's own size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def launch(cmd: list[str], pythonpath: str, stdout: str, stderr: str, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=pythonpath)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = launch(request["cmd"], request["pythonpath"], request["stdout"],
                       request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
