"""Child launcher: reads one JSON request per line on stdin, runs it, and
answers with one JSON line on stdout.

Request: ``{"argv": [...], "cwd": "..."}``; the child is
``sys.executable *argv``.  Reply: ``{"code", "seconds", "maxrss_kb"}``.  The
child's output goes to ``.child.stdout`` and ``.child.stderr`` in ``cwd``.

Linux carries the forking process's resident set into a child's
``ru_maxrss``.  The benchmark process grows large while it generates
inputs, so children are started from this process instead, which stays
small, and each child's peak is its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 60.0  # a verb takes seconds; a run must end within 180 s


def run(argv: list[str], cwd: str) -> dict:
    with open(os.path.join(cwd, ".child.stdout"), "wb") as out, \
            open(os.path.join(cwd, ".child.stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["argv"], request["cwd"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
