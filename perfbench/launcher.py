"""Spawn, time and reap child processes on request, from a process that stays small.

    python perfbench/launcher.py < requests > results

Each request line is a JSON object {"args": [...], "log": PATH}: run the
current interpreter with those arguments, stdout and stderr to PATH. Each
result line gives the child's exit code, its wall time from spawn to exit,
and its CPU time and peak RSS from `os.wait4` on its pid.

Linux carries the spawning process's peak RSS into a child across exec, so
a child's `ru_maxrss` is never below its parent's. The benchmark itself
grows while it generates inputs; spawning from this process, started while
the benchmark was still small, keeps the children's peak RSS their own.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

CHILD_TIMEOUT_S = 120


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(args: list[str], log: str, running: list[int]) -> dict:
    with open(log, "wb") as out:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, out.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=actions)
    running.append(pid)
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        running.remove(pid)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit_code": os.waitstatus_to_exitcode(status),
    }


def main() -> int:
    running: list[int] = []

    def stop(signum, frame):
        """On SIGTERM, kill and reap the running child before exiting."""
        for pid in running:
            _kill(pid)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["args"], request["log"], running)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
