"""Start benchmark commands from a process that stays small.

    python3 perfbench/spawner.py

Reads one JSON request per line on standard input (argv, cwd, env,
stdout and stderr paths, timeout), runs that command to completion, and
answers with one JSON line: exit status, start and end on the system-wide
monotonic clock, and the child's own CPU time and peak RSS from
``os.wait4``.  Ends when its input closes.

Why a separate process: Linux starts a child on its parent's memory
(vfork), and the child's peak RSS as ``wait4`` reports it includes the
peak RSS of that memory at ``exec``.  Started from the benchmark's main
process, which reads the commands' outputs, every child would report at
least the main process's peak.  This process imports nothing large and
reads no outputs, so the figures are the children's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "start": start, "end": end,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
