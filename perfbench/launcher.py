"""Starts the benchmark's child processes, one at a time, from a small process.

    python3 -I -S perfbench/launcher.py

Reads one JSON request a line on standard input,
``[timeout_s, stdout_path, stderr_path, program, *args]``, runs the program
with its output sent to the two files, and answers with one JSON line,
``[exit_code, seconds, max_rss_kb]`` (``exit_code`` is null when the child
was killed at the timeout).  Exits at the end of its input.

A child's ``ru_maxrss`` also counts the peak memory of the process that
started it (Linux carries the peak from before ``exec`` over), so children
started from the benchmark process itself would report its memory, not
their own.  This process stays near 10 MB, below any child that imports
``confrac``.
"""

import json
import os
import signal
import sys
from time import perf_counter

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _timed_out(signum, frame):
    raise TimeoutError


def main() -> None:
    signal.signal(signal.SIGALRM, _timed_out)
    for line in sys.stdin:
        timeout, out, err, *argv = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out, WRITE, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, WRITE, 0o644)]
        signal.alarm(timeout)
        t0 = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
            seconds = perf_counter() - t0
            signal.alarm(0)
            code = os.waitstatus_to_exitcode(status)
        except TimeoutError:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            seconds, code = perf_counter() - t0, None
        print(json.dumps([code, seconds, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
