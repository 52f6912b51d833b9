"""Duty-cycled unlicensed-LTE transmitter: on/off scheduling and spectrum occupancy.

The node alternates a fixed active interval with a randomized silent interval
(mean period = active + silent), starts every active interval on a radio-frame
boundary, and never carrier-senses: while on it radiates continuously over its
occupied band, while off it radiates nothing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .engine import NS_PER_MS, Engine
from .radio import SpectrumBand

if TYPE_CHECKING:
    from .config import LteSettings

PRB_CHOICES = (6, 15, 25, 50, 75, 100)
PRB_WIDTH_MHZ = 0.18

RNG_LABEL = "lte-silent"


def _round_ms_to_ns(value_ms: float) -> int:
    # Half-up to whole subframes; all schedule arithmetic stays integer ns.
    return int(math.floor(value_ms + 0.5)) * NS_PER_MS


def on_duration_ns(cfg: LteSettings) -> int:
    """Fixed active interval: duty x mean period, whole 1 ms subframes."""
    return _round_ms_to_ns(cfg.duty * cfg.mean_period_ms)


def draw_silent_duration_ns(cfg: LteSettings, rng: np.random.Generator) -> int:
    """One randomized silent interval, whole subframes, at least 1 ms.

    Uniform on [(1-spread), (1+spread)] x mean silent time, so the long-run
    on fraction converges to the configured duty.  Requires duty < 1.
    """
    if cfg.duty >= 1.0:
        raise ValueError("duty 1 has no silent period")
    mean_off_ms = (1.0 - cfg.duty) * cfg.mean_period_ms
    low = (1.0 - cfg.silent_spread) * mean_off_ms
    high = (1.0 + cfg.silent_spread) * mean_off_ms
    return max(_round_ms_to_ns(float(rng.uniform(low, high))), NS_PER_MS)


def occupied_band(cfg: LteSettings) -> SpectrumBand:
    """Occupied spectrum: n_prb x 180 kHz centered at the configured offset."""
    return SpectrumBand(cfg.center_offset_mhz, cfg.n_prb * PRB_WIDTH_MHZ)


class LteNode:
    """Event-driven duty-cycle schedule; notifies the medium at each transition.

    Draws only from its own RNG stream, so the schedule for a given seed is
    identical whether or not WiFi nodes exist in the run.
    """

    name = "lte"

    def __init__(self, engine: Engine, cfg: LteSettings, medium) -> None:
        self.engine = engine
        self.cfg = cfg
        self.medium = medium
        # Only a duty strictly between 0 and 1 has silent periods to draw.
        self.rng = engine.rng_stream(RNG_LABEL) if 0.0 < cfg.duty < 1.0 else None
        self.next_ns: int | None = None  # time of the next scheduled transition
        self._on_ns = on_duration_ns(cfg)
        self._align_ns = cfg.frame_align_ms * NS_PER_MS

    def start(self) -> None:
        if self._on_ns:  # 0 only at duty 0
            self.next_ns = 0
            self.engine.schedule(0, "lte-on", self.name, self._turn_on)

    # Each transition sets the time of the next one before the medium records
    # it and notifies the station, so a station that contends inside the
    # callback knows how long the medium stays as it is.  The next transition
    # is scheduled after the station has reacted, which keeps the station's
    # events ahead of it when both fall on the same instant.

    def _turn_on(self) -> None:
        now = self.engine.now
        self.next_ns = now + self._on_ns if self.cfg.duty < 1.0 else None
        self.medium.lte_switched(now)
        if self.next_ns is not None:
            self.engine.schedule(self.next_ns, "lte-off", self.name, self._turn_off)

    def _turn_off(self) -> None:
        now = self.engine.now
        silent_ns = draw_silent_duration_ns(self.cfg, self.rng)
        # Ceiling to the next frame boundary; the extra wait counts as off-time.
        self.next_ns = -(-(now + silent_ns) // self._align_ns) * self._align_ns
        self.medium.lte_switched(now)
        self.engine.schedule(self.next_ns, "lte-on", self.name, self._turn_on)
