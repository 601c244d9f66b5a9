"""Starts the benchmark's measured processes from a process that stays small.

On Linux a child's ``ru_maxrss`` starts at the high-water RSS of the process
that spawned it, so a child of ``run.py``, which holds the reference outputs,
would report ``run.py``'s memory instead of its own.  ``run.py`` starts this
launcher before it allocates anything large and spawns every measured process
through it.

Protocol: one JSON request per line on standard input, with ``argv``,
``stdout``, ``stderr`` (file paths), ``cwd``, ``env`` and ``timeout``
(seconds, after which the child is killed); one JSON reply per line on
standard output, with ``started`` (``time.perf_counter()`` at spawn, the
system-wide monotonic clock), ``wall_s``, ``exit`` and ``peak_rss_mb``.  The
launcher exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "started": started,
        "wall_s": ended - started,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
