"""Run one command and report its exit status, wall time and peak RSS.

    python3 launch.py REPORT_FILE PROGRAM ARGS...

Writes ``<exit status> <wall seconds> <max RSS in KiB>`` to REPORT_FILE and
exits 0. The child inherits stdin, stdout and stderr.

The benchmark starts every measured process through this small one. Linux
starts a child's max-RSS at the RSS of the process that spawned it, so a
child spawned straight from the benchmark, which holds the outputs it checks,
would report the benchmark's memory instead of its own. The RSS of a child
includes the processes it waited for, such as the workers of a pool.
"""

import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    with open(report, "w", encoding="utf-8") as handle:
        handle.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
