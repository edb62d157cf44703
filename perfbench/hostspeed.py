"""Host speed, measured by a fixed reference loop next to every timing.

The benchmark runs on shared vCPUs whose speed moves with the load other
tenants put on the host: a fixed pure-Python loop ran up to 1.8x slower
from one minute to the next, in streaks of seconds.  CPU time tracks wall
time, so this is contention, not descheduling, and no statistic over one
run's own calls removes it.  A reference loop that shares no code with
``repro`` slows down the same way: timed right before and right after a
measured call, it tracked the call's speed with correlation 0.87, and the
ratio of the two spread 2-5% over windows where raw walls spread 60%.

So every reported timing is a wall time multiplied by ``factor()``: the
reference loop's nominal time over its measured time around that timing.  A reported second
is a second of a host running the reference loop in ``NOMINAL_S``.  The
raw walls are printed next to the adjusted ones.
"""

from __future__ import annotations

import gc
import os
import statistics
import struct
import time

import numpy as np

#: The reference loop's time on a quiet vCPU of the recording host
#: (2 vCPUs of an Intel Xeon at 2.0 GHz).  A constant, so adjusted times
#: compare across runs, commits and hosts.
NOMINAL_S = 0.008

def _loop() -> None:
    # Interpreter work (dict stores, tuple allocation, integer arithmetic)
    # plus small numpy calls: the mix the client and executor spend
    # their time in, on data that fits in cache.
    table = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = (i, i * 0.5)
        total += len(table)
    a = np.arange(2000.0)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)


def reference_s(repeats: int = 3, processes: int = 1) -> float:
    """Mean over ``processes`` concurrent copies of the reference loop of
    each copy's median time.  The extra copies run in forked children,
    which this waits for.

    A measured call is bracketed by as many copies as it runs processes.
    On a busy host, a 2-worker pool call scaled by two concurrent copies
    spread by 5% over five seeds, against 15% scaled by one copy; a
    one-process closed loop spread more with two copies (4-7%) than with
    one (2-7%).
    """
    read_fd, write_fd = os.pipe()
    pids = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_fd, struct.pack("d", _median_time(repeats)))
            finally:
                os._exit(0)
        pids.append(pid)
    os.close(write_fd)
    times = [_median_time(repeats)]
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    for pid in pids:
        os.waitpid(pid, 0)
    times.extend(t for (t,) in struct.iter_unpack("d", data))
    if len(times) != processes:
        raise RuntimeError("a reference loop process gave no time")
    return statistics.fmean(times)


def _median_time(repeats: int) -> float:
    """Median time of the reference loop, with the cyclic collector paused
    so the measured program's heap cannot slow the loop down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for a wall time bracketed by reference times ``before`` and
    ``after``: below 1 when the host ran slow."""
    return NOMINAL_S / ((before + after) / 2)
