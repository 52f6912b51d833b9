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
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hashes each entropy word with a constant that steps by a
# multiplier at every use, mixes the words into a pool of four, and hashes the pool,
# cycled, with a second stepping constant for its output.  The constants do not
# depend on the data.  A stream's entropy is at most 10 words, a 2-word seed and 8
# label words: 4 fill the pool, 12 hashes mix it and each later word takes 4, so 41
# constants; its 4 uint64 outputs take 9 of the second kind.
_HASH_A = np.array([0x43B0_D7E5 * pow(0x931E_8875, k, 2**32) % 2**32 for k in range(41)],
                   dtype=np.uint32)
_HASH_B = np.array([0x8B51_F9DD * pow(0x58F3_8DED, k, 2**32) % 2**32 for k in range(9)],
                   dtype=np.uint32)
# SeedSequence mixes y into x as 0xCA01_F9DD * x - 0x4973_F715 * y, then a shift:
# _MIX_L * x + _MIX_R * y in uint32.
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01_F9DD), np.uint32(2**32 - 0x4973_F715), np.uint32(16)
# Mixing the pool: each word, hashed once per other word, goes into the other three.
_CROSS = [(src, [dst for dst in range(4) if dst != src],
           np.arange(4 + 3 * src, 7 + 3 * src)[:, None]) for src in range(4)]


def _hash(words: np.ndarray, k, constants: np.ndarray = _HASH_A) -> np.ndarray:
    """SeedSequence's k-th hash of words, all uint32 arrays, so no Python int
    meets an array whatever numpy's casting rules."""
    words = (words ^ constants[k]) * constants[k + 1]
    return words ^ words >> _SHIFT


@functools.cache
def _label_mixing(label: str, seed_words: int) -> tuple[np.ndarray, np.ndarray]:
    """What a label adds to the pool of any seed of ``seed_words`` words: the pool
    words, hashed (at the seed's own positions a hash of 0, which each seed
    replaces), and for each later word the (4, 1) column of terms
    ``_MIX_R * hash`` that the pool words mix in."""
    entropy = np.concatenate((np.zeros(seed_words, dtype=np.uint32), _label_words(label)))
    k = 16 + 4 * np.arange(len(entropy) - 4)[:, None] + np.arange(4)
    later = _hash(entropy[4:, None], k) * _MIX_R
    return _hash(entropy[:4], np.arange(4)), later[..., None]


def _seed_sequence_words(seed_words: list[np.ndarray], label: str) -> np.ndarray:
    """``stream_words`` for seeds of one length, given as their 32-bit words."""
    filled, later = _label_mixing(label, len(seed_words))
    pool = np.repeat(filled[:, None], len(seed_words[0]), axis=1)
    pool[:len(seed_words)] = _hash(np.array(seed_words), np.arange(len(seed_words))[:, None])
    for src, dsts, k in _CROSS:
        mixed = pool[dsts] * _MIX_L + _hash(pool[src], k) * _MIX_R
        pool[dsts] = mixed ^ mixed >> _SHIFT
    for term in later:
        pool *= _MIX_L
        pool += term
        pool ^= pool >> _SHIFT
    out = _hash(pool[[0, 1, 2, 3] * 2], np.arange(8)[:, None], _HASH_B)
    # generate_state's uint64 words are its uint32 words paired, low first.
    return np.ascontiguousarray(out.T).view("<u8").astype(np.uint64, copy=False)


def stream_words(seeds, label: str) -> np.ndarray:
    """The PCG64 seed words of the ``(seed, label)`` stream of each seed in [0, 2^64),
    one row each: ``SeedSequence([seed, *label_words]).generate_state(4, uint64)``
    restated in NumPy over the batch, so an Engine given a row builds the stream
    the seed alone gives it, without a SeedSequence."""
    seeds = np.array(seeds, dtype=np.uint64).reshape(-1)
    low, high = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    two = high != 0  # a seed below 2^32 is one word to SeedSequence, others two
    out = np.empty((len(seeds), 4), dtype=np.uint64)
    for rows, words in ((~two, [low]), (two, [low, high])):
        if rows.all():
            return _seed_sequence_words(words, label)
        if rows.any():
            out[rows] = _seed_sequence_words([w[rows] for w in words], label)
    return out


class _Words(ISeedSequence):
    """A seed sequence that gives the stream words ``stream_words`` computed,
    for PCG64's one call: ``generate_state(4, np.uint64)``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


class Seed(int):
    """A master seed and the PCG64 seed words of its streams: row ``index`` of
    ``words[label]``, a batch ``stream_words`` computed.  An Engine builds those
    streams from the words, the same streams the plain seed gives it.  A sweep
    also hands its run the plan it looked up for the run's config."""

    def __new__(cls, seed: int, words: dict[str, np.ndarray], index: int, plan=None) -> Seed:
        self = super().__new__(cls, seed)
        self.words, self.index, self.plan = words, index, plan
        return self

    def __reduce__(self):
        return Seed, (int(self), self.words, self.index, self.plan)


class SchedulingError(Exception):
    """An event was scheduled before the current clock (contract violation)."""


@dataclass(slots=True)
class Event:
    """A schedulable occurrence; (fire_time, seq) is a strict total order per run."""

    fire_time: int  # ns since run start
    seq: int        # insertion counter, unique per run
    kind: str       # e.g. lte-on, lte-off, difs-end, backoff-slot, tx-end, ack-timeout, run-end
    target: str     # node identifier
    fn: Callable[[], None] | None = field(repr=False)  # None once it cannot fire
    detail: str = ""


def trace_line(t: int, kind: str, target: str, detail: str) -> str:
    """One trace line: ``time_ns kind node [detail]`` and a newline."""
    return f"{t} {kind} {target} {detail}".rstrip() + "\n"


class Engine:
    """Single-threaded event loop with a master seed and per-purpose RNG streams."""

    def __init__(self, seed: int, trace: bool = False) -> None:
        self.seed = int(seed)
        self._words, self._index = (seed.words, seed.index) if isinstance(seed, Seed) else ({}, 0)
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
        """True iff the event could still fire and now never will."""
        if event.fn is None:
            return False
        event.fn = None
        return True

    def run_until(self, t_end: int) -> None:
        """Dispatch the events with fire_time <= t_end in order, drop the rest; clock ends at t_end.

        A traced run records each event's line, except for an event with an
        empty kind: a step that resumes contention has written its own lines.
        """
        if t_end <= self.now:
            raise SchedulingError(f"run_until({t_end}) at clock {self.now}")
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            _, _, event = heapq.heappop(queue)
            fn, event.fn = event.fn, None
            if fn is None:
                continue
            self.now = event.fire_time
            if self.trace is not None and event.kind:
                self.trace.append(trace_line(event.fire_time, event.kind, event.target,
                                             event.detail))
            fn()
        self.now = t_end
        for _, _, event in queue:
            event.fn = None
        queue.clear()

    def rng_stream(self, label: str) -> np.random.Generator:
        """Deterministic generator derived from (master seed, label).

        Equal (seed, label) pairs yield identical draw sequences; distinct
        labels yield independent streams, so one node's draws never perturb
        another's.  A ``Seed`` with words for the label gives the same
        generator from them, without a SeedSequence.
        """
        stream = self._streams.get(label)
        if stream is None:
            words = self._words.get(label)  # the batch's, one row a seed
            if words is None:
                # The words SeedSequence([seed, *label_words]) assembles, given to
                # it as one array: the same state without converting each int.
                entropy = np.concatenate((_uint32_words(self.seed), _label_words(label)))
                sequence = np.random.SeedSequence(entropy)
            else:
                sequence = _Words(words[self._index])
            stream = self._streams[label] = np.random.Generator(np.random.PCG64(sequence))
        return stream
