"""Run one program, from a small process, and report its wall time and peak RSS.

    python3 perfbench/spawn.py LOG TIMEOUT_S -- PROGRAM [ARGS...]

Prints one JSON object: wall_s, peak_rss_mb and returncode. The program's own
output is appended to LOG. The benchmark starts every measured program through
this script because Linux keeps the spawning process's peak RSS in the child's
ru_maxrss (at exec the old address space's high-water mark is carried over), so
the process that spawns the program must stay small.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def run_child(argv: list[str], log: str, timeout_s: float) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MiB, exit status) of one child process.

    Wall time runs from just before the process starts to its reaping; the
    peak RSS is the child's own, from the rusage ``os.wait4`` returns. A child
    still running after ``timeout_s`` is killed.
    """
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        sys.exit(__doc__.split("\n\n")[1])
    wall, rss, rc = run_child(argv[4:], argv[1], float(argv[2]))
    print(json.dumps({"wall_s": wall, "peak_rss_mb": rss, "returncode": rc}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
