"""Duty-cycled unlicensed-LTE transmitter: on/off scheduling and spectrum occupancy.

The node alternates a fixed active interval with a randomized silent interval
(mean period = active + silent), starts every active interval on a radio-frame
boundary, and never carrier-senses: while on it radiates continuously over its
occupied band, while off it radiates nothing.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING

from .engine import NS_PER_MS, Engine
from .radio import SpectrumBand

if TYPE_CHECKING:
    from .config import LteSettings

PRB_CHOICES = (6, 15, 25, 50, 75, 100)
PRB_WIDTH_MHZ = 0.18

RNG_LABEL = "lte-silent"


def on_duration_ns(cfg: LteSettings) -> int:
    """Fixed active interval: duty x mean period, half-up to whole 1 ms
    subframes; all schedule arithmetic stays integer ns."""
    return int(math.floor(cfg.duty * cfg.mean_period_ms + 0.5)) * NS_PER_MS


def silent_range_ms(cfg: LteSettings) -> tuple[float, float]:
    """The uniform's bounds: [(1-spread), (1+spread)] x mean silent time."""
    if cfg.duty >= 1.0:
        raise ValueError("duty 1 has no silent period")
    mean_off_ms = (1.0 - cfg.duty) * cfg.mean_period_ms
    return (1.0 - cfg.silent_spread) * mean_off_ms, (1.0 + cfg.silent_spread) * mean_off_ms


def _silent_ns(drawn_ms: float) -> int:
    """A silent interval from the uniform's value: whole subframes, at least 1."""
    return max(math.floor(drawn_ms + 0.5), 1) * NS_PER_MS


def occupied_band(cfg: LteSettings) -> SpectrumBand:
    """Occupied spectrum: n_prb x 180 kHz centered at the configured offset."""
    return SpectrumBand(cfg.center_offset_mhz, cfg.n_prb * PRB_WIDTH_MHZ)


class LteNode:
    """Duty-cycle schedule, drawn when the node is built; one pending event,
    once armed, counts the next transition by the run end and tells the
    station that armed it.

    Draws only from its own RNG stream, so the schedule for a given seed is
    identical whether or not WiFi nodes exist in the run.  ``times`` is the
    one record of the LTE schedule: the transitions up to the first past the
    run end, "on" at even indices.  The first ``passed`` have happened.  A
    station counts those it walks past: the node arms only where the station
    hands a cycle to the events, or in a run without one.
    """

    name = "lte"

    def __init__(self, engine: Engine, end_ns: int, period: tuple) -> None:
        self.engine, self.end_ns = engine, end_ns
        self._on_ns, self._align_ns, self._silent_ms = period  # ns, ns, ms or None
        self.rng = None if self._silent_ms is None else engine.rng_stream(RNG_LABEL)
        self.times: list[int] = []  # none at duty 0
        if self._on_ns:
            self.times = [0] if self.rng is None else self._schedule(end_ns)
        self.passed = 0  # transitions that have happened
        self._event = None  # the pending transition event

    def _schedule(self, end_ns: int) -> list[int]:
        """The transitions from 0 to the first one past ``end_ns``.

        Silent periods are drawn in blocks of raw outputs, one call each, of the offs
        that surely fall by ``end_ns``: no period is longer than on, the longest silence
        and a frame.  So every draw is used, and the stream ends where one draw per off by
        ``end_ns`` leaves it.  A draw is ``uniform``'s: low + (high - low) x top 53 bits / 2^53.
        """
        low, high = self._silent_ms
        on, align, times, t = self._on_ns, self._align_ns, [0], 0
        longest_ns = on + _silent_ns(high) + align
        while (offs := (end_ns - t - on) // longest_ns + 1) > 0:
            for raw in self.rng.bit_generator.random_raw(offs).tolist():
                drawn_ms = low + (high - low) * ((raw >> 11) * 2**-53)
                # An off, then the next on (``_silent_ns`` inline: no draw is negative),
                # which waits for a frame boundary; the extra wait counts as off-time.
                times += (t + on, t := t + -(-(on + (int(drawn_ms + 0.5) or 1) * NS_PER_MS)
                                             // align) * align)
        return times + [t + on] * (t <= end_ns)  # the off past the end

    # The node counts a transition, and the event tells the station, before
    # the next one is scheduled: a station that contends inside the callback
    # knows how long the medium stays as it is, and its events stay ahead
    # of the node's when both fall on the same instant (as do a station's that
    # starts at an LTE-off; one that starts at 0 arms the node first).

    def arm(self, station=None) -> None:
        """Schedule the event of the next transition, if it falls by the run end and
        none is pending; the station given, if any, learns of the transition."""
        n = self.passed
        if self._event is None and n < len(self.times) and self.times[n] <= self.end_ns:
            # A lambda, not a partial: the callback's module names its layer in profiles.
            self._event = self.engine.schedule(self.times[n], "lte-off" if n % 2 else "lte-on",
                                               self.name, lambda: self._switch(station))

    def _switch(self, station) -> None:
        self._event = None
        self.passed += 1
        if station is not None:
            station.lte_switched(self.engine.now)
        self.arm(station)

    def advance_to(self, t: int) -> None:
        """Count the transitions up to ``t`` that the station has run past on
        its own, and drop the pending event if it was one; ``arm`` replaces it."""
        j = bisect.bisect_right(self.times, t, self.passed)
        if j > self.passed:
            self.passed = j
            if self._event is not None:
                self.engine.cancel(self._event)
                self._event = None
