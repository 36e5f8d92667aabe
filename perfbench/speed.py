"""How fast each CPU runs, sampled while the benchmark's commands run.

    python3 perfbench/speed.py --cpu N --out FILE

The process pins itself to CPU N.  Every PERIOD seconds it runs a fixed
pure-Python loop and records the loop's CPU time, together with the
CPU's busy and steal time from /proc/stat, until its standard input
closes; then it writes one line per reading to FILE and ends.

Why: on a virtual CPU that shares a physical core with other tenants,
code runs up to twice as slow while the other hyperthread is busy, and
that changes every few seconds, independently on each CPU.  The slowdown
shows in CPU time as well as wall time, and not as steal.  A loop that
runs on the same CPU a few milliseconds apart slows down by about the
same factor as the command, so dividing a command's times by the loop's
slowdown over the command's interval removes most of the machine's
variation (``Sensors.slowdowns`` below).  Time the host does not run the
virtual CPU at all shows as steal, and in wall time but not in CPU time;
the wall-time factor counts it too.  The loop takes about 1-3 ms every
50 ms, so it costs a command on its CPU about 3-4%, the same on every run.
Sampling more often wakes the CPUs more often, which adds steal of its
own and made short commands spread more.
"""

from __future__ import annotations

import argparse
import bisect
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PERIOD = 0.050  # seconds between readings
LOOP = 12500  # iterations of the timed loop
# Loop CPU time that counts as speed 1: about the median on the 2-core VM
# the benchmark was written on, so that scaled times read close to that
# machine's usual wall times.  Any fixed value works; it must not change
# between the runs that are compared.
REFERENCE_LOOP_S = 0.00175
TICK = 1.0 / os.sysconf("SC_CLK_TCK")


@dataclass
class Reading:
    time: float  # perf_counter (CLOCK_MONOTONIC) at the end of the loop
    busy: float  # CPU busy time from /proc/stat, seconds, less this process's own
    steal: float  # CPU steal time from /proc/stat, seconds
    loop: float  # CPU time of the loop, seconds


def loop() -> float:
    start = time.thread_time()
    s = 0.0
    for i in range(LOOP):
        s += math.cos(i * 1e-3)
    return time.thread_time() - start


def cpu_times(stat, cpu: int) -> tuple[float, float]:
    """(busy, steal) seconds of one CPU since boot."""
    stat.seek(0)
    prefix = f"cpu{cpu} ".encode()
    for line in stat.read().splitlines():
        if line.startswith(prefix):
            user, nice, system, _idle, _iowait, _irq, _softirq, steal = (
                int(x) for x in line.split()[1:9])
            return (user + nice + system) * TICK, steal * TICK
    raise RuntimeError(f"cpu{cpu} not in /proc/stat")


def sample(cpu: int, out: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    rows = []
    with open("/proc/stat", "rb") as stat:
        while not select.select([sys.stdin], [], [], PERIOD)[0]:
            busy, steal = cpu_times(stat, cpu)
            busy -= time.process_time()
            rows.append(f"{time.perf_counter():.6f} {busy:.3f} {steal:.3f} {loop():.9f}\n")
    out.write_text("".join(rows))


def load(path: Path) -> list[Reading]:
    return [Reading(*map(float, line.split())) for line in path.read_text().splitlines()]


class Sensors:
    """One sampling process per CPU this process may run on.

    Use as a context manager; leaving it stops every sampler, waits for
    it to end, and loads its readings into ``readings``.
    """

    def __init__(self, work: Path):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.paths = [work / f"speed-cpu{cpu}.txt" for cpu in self.cpus]
        self.readings: list[list[Reading]] = []
        self.times: list[list[float]] = []
        self.procs = []
        try:
            for cpu, path in zip(self.cpus, self.paths):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-s", __file__, "--cpu", str(cpu), "--out", str(path)],
                    stdin=subprocess.PIPE))
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "Sensors":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        if exc[0] is None:
            self.readings = [load(path) for path in self.paths]
            self.times = [[r.time for r in rows] for rows in self.readings]

    def stop(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.returncode != 0:
                raise RuntimeError(f"speed sampler exited with {proc.returncode}")
        self.procs = []

    def slowdowns(self, start: float, end: float) -> tuple[float, float]:
        """The slowdowns of wall time and of CPU time over [start, end].

        A reading stands for the interval since the CPU's reading before
        it.  The CPU-time slowdown is the loop's CPU time over
        REFERENCE_LOOP_S, averaged over the readings of every CPU weighted
        by the time the CPU was busy in the interval with anything other
        than the sampler, so the CPUs a command ran on count and idle ones
        do not.  The wall-time slowdown divides each CPU's part by the
        share of [start, end] that CPU was not stolen; steal is counted in
        10 ms ticks, too coarse to share out reading by reading.
        """
        wall = cpu = weights = 0.0
        for rows, times in zip(self.readings, self.times):
            first = max(1, bisect.bisect_left(times, start))
            last = bisect.bisect_right(times, end) - 1
            if last < first:
                continue
            loops = busy = 0.0
            for i in range(first, last + 1):
                weight = max(0.0, rows[i].busy - rows[i - 1].busy)
                loops += weight * rows[i].loop
                busy += weight
            stolen = (rows[last].steal - rows[first - 1].steal) / (
                rows[last].time - rows[first - 1].time)
            cpu += loops
            wall += loops / (1.0 - min(stolen, 0.9))
            weights += busy
        if weights == 0.0:
            raise RuntimeError(f"no speed readings over a busy CPU in [{start}, {end}]")
        return wall / weights / REFERENCE_LOOP_S, cpu / weights / REFERENCE_LOOP_S


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sample(args.cpu, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
