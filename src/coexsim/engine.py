"""Deterministic discrete-event core: integer-ns clock, event queue, labeled RNG streams.

One :class:`Engine` owns one simulation run.  Time is an integer nanosecond
count from run start; there is no floating-point time anywhere.  Events fire
in strict ``(fire_time, seq)`` order, so simultaneous events dispatch in
insertion order and every run is exactly reproducible from its seed.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def _uint32_words(n: int) -> np.ndarray:
    """A non-negative int as numpy's SeedSequence splits it: 32-bit words,
    low word first, as many as it needs (one for 0)."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFF_FFFF]
    while n := n >> 32:
        words.append(n & 0xFFFF_FFFF)
    return np.array(words, dtype=np.uint32)


@functools.cache
def _label_words(label: str) -> np.ndarray:
    """The words of a label's four 64-bit SHA-256 words, as _uint32_words splits them."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.concatenate([_uint32_words(int.from_bytes(digest[i:i + 8], "little"))
                           for i in range(0, 32, 8)])


class SchedulingError(Exception):
    """An event was scheduled before the current clock (contract violation)."""


@dataclass(slots=True)
class Event:
    """A schedulable occurrence; (fire_time, seq) is a strict total order per run."""

    fire_time: int  # ns since run start
    seq: int        # insertion counter, unique per run
    kind: str       # e.g. lte-on, lte-off, difs-end, backoff-slot, tx-end, ack-timeout, run-end
    target: str     # node identifier
    fn: Callable[[], None] = field(repr=False)
    detail: str = ""
    cancelled: bool = False
    fired: bool = False


def trace_line(t: int, kind: str, target: str, detail: str) -> str:
    """One trace line: ``time_ns kind node [detail]`` and a newline."""
    return f"{t} {kind} {target} {detail}".rstrip() + "\n"


class Engine:
    """Single-threaded event loop with a master seed and per-purpose RNG streams."""

    def __init__(self, seed: int, trace: bool = False) -> None:
        self.seed = int(seed)
        self.now = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._streams: dict[str, np.random.Generator] = {}
        # Text chunks of whole trace lines; None disables recording.
        self.trace: list[str] | None = [] if trace else None

    def schedule(self, fire_time: int, kind: str, target: str,
                 fn: Callable[[], None], detail: str = "") -> Event:
        """Schedule ``fn`` at absolute ``fire_time`` (ns); returns a cancellable handle."""
        if fire_time < self.now:
            raise SchedulingError(
                f"event {kind!r} for {target!r} scheduled at {fire_time} ns, "
                f"before current clock {self.now} ns")
        event = Event(int(fire_time), self._seq, kind, target, fn, detail)
        self._seq += 1
        heapq.heappush(self._queue, (event.fire_time, event.seq, event))
        return event

    def schedule_in(self, delay_ns: int, kind: str, target: str,
                    fn: Callable[[], None], detail: str = "") -> Event:
        return self.schedule(self.now + delay_ns, kind, target, fn, detail)

    def cancel(self, event: Event) -> bool:
        """True iff the event had not yet fired and now never will."""
        if event.fired or event.cancelled:
            return False
        event.cancelled = True
        return True

    def run_until(self, t_end: int) -> None:
        """Dispatch all events with fire_time <= t_end in order; clock ends at t_end.

        A traced run records each event's line, except for an event with an
        empty kind: a step that resumes contention has written its own lines.
        """
        if t_end <= self.now:
            raise SchedulingError(f"run_until({t_end}) at clock {self.now}")
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            _, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = event.fire_time
            event.fired = True
            if self.trace is not None and event.kind:
                self.trace.append(trace_line(event.fire_time, event.kind, event.target,
                                             event.detail))
            event.fn()
        self.now = t_end

    def rng_stream(self, label: str) -> np.random.Generator:
        """Deterministic generator derived from (master seed, label).

        Equal (seed, label) pairs yield identical draw sequences; distinct
        labels yield independent streams, so one node's draws never perturb
        another's.
        """
        stream = self._streams.get(label)
        if stream is None:
            # The words SeedSequence([seed, *label_words]) assembles, given to
            # it as one array: the same state without converting each int.
            entropy = np.concatenate((_uint32_words(self.seed), _label_words(label)))
            stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            self._streams[label] = stream
        return stream
