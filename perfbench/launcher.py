"""Start run.py's child processes and report each one's wall time and peak RSS.

Reads one JSON request per line on stdin, ``[argv, stdout_path,
stderr_path, limit_s]``, runs ``argv`` from the current directory with its
output in those files, and answers with one JSON line ``[seconds, rss_kb,
wait_status]`` taken from ``os.wait4``.  A child still running after
``limit_s`` is killed.  Exits at end of input.

Linux counts the memory a child held before ``exec`` in its ``ru_maxrss``.
This process imports almost nothing and holds no outputs, so that memory is
its own few MB rather than the benchmark's, and ``ru_maxrss`` is the child's.
"""

import json
import os
import signal
import sys
import time

_child = 0


def _kill(signum, frame):
    if _child:
        os.kill(_child, signal.SIGKILL)


def main() -> None:
    global _child
    signal.signal(signal.SIGALRM, _kill)
    for line in sys.stdin:
        argv, out_path, err_path, limit = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        start = time.perf_counter()
        _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(limit)
        _, status, usage = os.wait4(_child, 0)
        seconds = time.perf_counter() - start
        signal.alarm(0)
        _child = 0
        print(json.dumps([seconds, usage.ru_maxrss, status]), flush=True)


if __name__ == "__main__":
    main()
