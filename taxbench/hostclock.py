"""Host-speed-normalised timing of one worker run.

On a shared host the same single-threaded work runs up to about 2.3x
slower in phases lasting from a second to minutes (other load on the
host), and wall and CPU time slow down together.  A run of
fixed work then measures the host as much as the program.  `HostClock`
samples the host's speed *while the workload runs*: a SIGALRM timer
interrupts the program every `INTERVAL_S` (Python runs the handler between
bytecodes, in the main thread) and the handler times a fixed reference
kernel of exact-fraction arithmetic, the kind of work taxlab does, in CPU
time.  Each stretch of workload time between two samples is then scaled by
`REFERENCE_S / kernel time` (the median of the nearby samples), which
reads it as seconds on a host where the kernel takes `REFERENCE_S`.
Handler time is excluded from the stretches.

The hypervisor can also take the vCPU away altogether ("steal"): wall time
runs on while the process makes no progress and accrues no CPU time.  The
handler reads the steal counter of the vCPU it runs on (/proc/stat), and
wall time is counted less the steal of the vCPU the run was on.  Where the
counter cannot be read, no steal is subtracted.

The same scale applies to set-up, which happens before the timer starts:
`calibrate()` times a burst of kernels right after it.

Only the benchmark's worker uses this; the program under test is not
changed (its outputs are digest-checked on every run).
"""

from __future__ import annotations

import array
import os
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# kernel time on an idle core of the machine the baseline was recorded on
# (2.0 GHz Xeon vCPU, Python 3.11.7), so normalised and raw seconds agree there
REFERENCE_S = 270e-6
WINDOW = 2  # samples on each side whose median scales a stretch
BURST = 15  # kernels timed by calibrate()


TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")  # unit of /proc/stat


def steal_counters():
    """Cumulative steal time of each vCPU in seconds and the vCPU this
    process is on, or (None, None)."""
    try:
        with open("/proc/stat", "rb") as f:
            lines = f.read().split(b"\n")
        with open("/proc/self/stat", "rb") as f:
            on = int(f.read().rsplit(b")", 1)[1].split()[36])  # field 39, processor
    except (OSError, IndexError, ValueError):
        return None, None
    return [int(line.split()[8]) * TICK_S for line in lines[1:]
            if line.startswith(b"cpu")], on


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 121):
        acc += Fraction(1, i)
    return acc


def time_kernel() -> float:
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


def calibrate() -> float:
    """Host speed now, as REFERENCE_S / median kernel time of a burst."""
    return REFERENCE_S / statistics.median(time_kernel() for _ in range(BURST))


class HostClock:
    """Times the code between `start()` and `stop()` in raw and in
    normalised wall and CPU seconds."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        # per sample: wall and CPU clock on entering and leaving the handler,
        # the kernel's CPU time and the steal since the previous sample
        self.samples = array.array("d")
        self.started = None
        self.steal = None  # counters of the last read

    def _stolen(self) -> float:
        """Steal of the current vCPU since the last read."""
        counters, on = steal_counters()
        last, self.steal = self.steal, counters
        if counters is None or last is None or len(last) != len(counters):
            return 0.0
        return counters[on] - last[on]

    def _tick(self, signum, frame) -> None:
        w_in, c_in = time.perf_counter(), time.process_time()
        stolen = self._stolen()
        cost = time_kernel()
        self.samples.extend((w_in, c_in, time.perf_counter(), time.process_time(),
                             cost, stolen))

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self._stolen()
        self.started = (time.perf_counter(), time.process_time())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        w_end, c_end = time.perf_counter(), time.process_time()
        last_stolen = self._stolen()
        signal.signal(signal.SIGALRM, self.previous)
        s = self.samples
        n = len(s) // 6
        costs = [s[6 * i + 4] for i in range(n)]
        if not costs:  # too short for a sample
            costs = [time_kernel() for _ in range(BURST)]
        # stretch i runs from the end of sample i-1 to the start of sample i
        ends_w = [self.started[0]] + [s[6 * i + 2] for i in range(n)]
        ends_c = [self.started[1]] + [s[6 * i + 3] for i in range(n)]
        starts_w = [s[6 * i] for i in range(n)] + [w_end]
        starts_c = [s[6 * i + 1] for i in range(n)] + [c_end]
        stolen = [s[6 * i + 5] for i in range(n)] + [last_stolen]
        wall = cpu = 0.0
        for i in range(n + 1):
            near = costs[max(0, i - WINDOW):i + WINDOW] or costs[-WINDOW:]
            scale = REFERENCE_S / statistics.median(near)
            wall += (starts_w[i] - ends_w[i] - stolen[i]) * scale
            cpu += (starts_c[i] - ends_c[i]) * scale
        return {"wall_s": wall, "cpu_s": cpu,
                "raw_wall_s": w_end - self.started[0],
                "raw_cpu_s": c_end - self.started[1], "stolen_s": sum(stolen),
                "samples": n, "host_speed": REFERENCE_S / statistics.median(costs)}
