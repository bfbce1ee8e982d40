"""Start the benchmark's child processes from a small process of its own.

On Linux a process started by fork or vfork and exec keeps the peak resident
memory of the process that started it as a floor of its own ``ru_maxrss``.
The benchmark process grows as it runs studies, so a child started from it
directly would report the benchmark's memory whenever its own is smaller.
This process imports nothing heavy and stays small: it starts each child,
waits for it with ``wait4`` and sends back the exit code and the child's peak
memory: the largest peak of the child and its waited-for descendants.

Protocol: one JSON request per line on stdin, ``[argv, cwd, stdout, stderr,
timeout_s]``, and one JSON reply per line on stdout, ``[exit_code,
max_rss_kib]``.  A child that outlives ``timeout_s`` is killed.  The process
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading


def main() -> None:
    for line in sys.stdin:
        argv, cwd, stdout, stderr, timeout_s = json.loads(line)
        with open(stdout, "wb") as out, open(stderr, "ab") as err:
            proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
