"""A fixed CPU-bound kernel that measures how fast the host runs Python right now.

The host the benchmark runs on is shared, and its speed drifts by tens of per
cent within seconds and minutes.  Every timed step of a run is bracketed by
calls to :func:`yardstick`, and the step's host time is scaled by
``REFERENCE_S / yardstick time``: the benchmark reports reference seconds, the
time the step would take on a host that runs the yardstick in ``REFERENCE_S``.

The kernel is a small discrete-event loop of the same shape as the simulator's
hot path: slotted event objects on a heap, bound-method callbacks, numpy
scalar draws, float math, and a growing trace of formatted lines that look up
a 32k-entry name table.  In one paired measurement across 2.4 s windows, the
program's log time moved 0.86 times as far as that of the kernel without the
trace, and 0.96 times as far with it, so one program reads about the same on a
fast and on a slow host.  The kernel imports nothing from the program, so no
change to the program moves it.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import statistics
import time
from dataclasses import dataclass

import numpy as np

# About the median yardstick time on the host the benchmark was defined on (2
# vCPUs of a shared x86-64 VM, Python 3.11, numpy 2.4).  Only a scale: it makes
# reference seconds read close to that host's wall seconds.
REFERENCE_S = 0.040
RUN_END_NS = 100_000_000
STATIONS = 4
_NAMES = [f"node-{i * 2654435761 % (1 << 32):x}" for i in range(1 << 15)]
# A sample that ended less than this long before a step counts as taken just before it.
FRESH_S = 0.01


@dataclass(slots=True)
class _Event:
    fire_time: int
    seq: int
    fn: object
    cancelled: bool = False


class _Loop:
    def __init__(self) -> None:
        self.now = 0
        self.queue: list[tuple[int, int, _Event]] = []
        self.seq = 0
        self.rng = np.random.Generator(np.random.PCG64(1))
        self.packets = 0
        self.sinr_sum = 0.0
        self.trace: list[str] = []

    def schedule_in(self, delay_ns: int, fn) -> _Event:
        event = _Event(self.now + delay_ns, self.seq, fn)
        self.seq += 1
        heapq.heappush(self.queue, (event.fire_time, event.seq, event))
        return event

    def run_until(self, t_end: int) -> None:
        queue = self.queue
        while queue and queue[0][0] <= t_end:
            _, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = event.fire_time
            event.fn()


class _Station:
    def __init__(self, loop: _Loop) -> None:
        self.loop = loop
        self.backoff = 0
        loop.schedule_in(34_000, self.difs_end)

    def difs_end(self) -> None:
        self.backoff = int(self.loop.rng.integers(0, 16))
        self.loop.schedule_in(9_000, self.slot)

    def slot(self) -> None:
        loop = self.loop
        name = _NAMES[(loop.seq * 7919) & (len(_NAMES) - 1)]
        loop.trace.append(f"{loop.now} backoff-slot {name} {self.backoff}")
        if self.backoff > 0:
            self.backoff -= 1
            loop.schedule_in(9_000, self.slot)
            return
        sinr_db = 10.0 * math.log10(1e-3 + float(loop.rng.random()))
        loop.sinr_sum += sinr_db
        loop.packets += 1
        timeout = loop.schedule_in(300_000, self.difs_end)
        if sinr_db > -20.0:
            timeout.cancelled = True
            loop.schedule_in(250_000, self.difs_end)


def yardstick() -> int:
    """Run the fixed kernel once; returns its packet count (always the same)."""
    loop = _Loop()
    for _ in range(STATIONS):
        _Station(loop)
    loop.run_until(RUN_END_NS)
    # Pending events hold the stations, which hold the loop: drop the cycle so
    # the kernel's memory is freed now, not at the next garbage collection.
    loop.queue.clear()
    return loop.packets


def _helper(conn) -> None:
    """Runs the yardstick in a helper process each time the parent asks."""
    while conn.recv():
        t0 = time.perf_counter()
        yardstick()
        conn.send(time.perf_counter() - t0)


class HostSpeed:
    """Times steps of a run in host and in reference seconds.

    Each step is bracketed by a yardstick sample before and one after it, and
    its reference time is its host time scaled by the mean of the two.  A
    sample that ended just before a step is reused as that step's first one,
    so steps run back to back share their samples.

    Each vCPU of a shared host speeds up and slows down on its own, so a step
    that keeps ``processes`` cores busy is bracketed by a sample that runs
    the yardstick in that many processes at once, and takes the harmonic mean
    of their times: work shared out dynamically goes at the sum of the speeds.
    Close the object to stop its helper processes.
    """

    def __init__(self, processes: int = 1) -> None:
        self.samples: list[float] = []
        self.host_s = 0.0  # running totals over every measured step
        self.reference_s = 0.0
        self._last_end = -math.inf
        self._helpers = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(processes - 1):
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child_end,), daemon=True)
            proc.start()
            child_end.close()
            self._helpers.append((proc, parent_end))

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join()
            conn.close()
        self._helpers = []

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def sample(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        t0 = time.perf_counter()
        yardstick()
        times = [time.perf_counter() - t0] + [conn.recv() for _, conn in self._helpers]
        self._last_end = time.perf_counter()
        self.samples.append(len(times) / sum(1.0 / t for t in times))
        return self.samples[-1]

    def measure(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` as one step; adds its times to the totals."""
        fresh = time.perf_counter() - self._last_end < FRESH_S
        before = self.samples[-1] if fresh else self.sample()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            host = time.perf_counter() - t0
            after = self.sample()
            self.host_s += host
            self.reference_s += host * 2.0 * REFERENCE_S / (before + after)

    def scale(self) -> float:
        """Reference seconds per host second, from every sample so far."""
        return REFERENCE_S / statistics.median(self.samples)


def unmeasured(fn, *args, **kwargs):
    """Stands in for :meth:`HostSpeed.measure` where nothing is timed."""
    return fn(*args, **kwargs)
