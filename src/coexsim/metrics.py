"""Per-run counters and statistical reductions (throughput, box-plot stats)."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from .engine import NS_PER_S


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Closed-out counters for one simulation run (integer-ns accounting)."""

    delivered_payload_bytes: int
    attempts: int
    failures: int
    drops: int
    wifi_airtime_ns: int
    lte_airtime_ns: int
    duration_ns: int


class BoxStats(NamedTuple):
    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    outliers: list[float]


class MetricsAccumulator:
    """Mutable counters filled in by the nodes while a run executes.

    WiFi airtime is set once, from the counters, when the station closes the
    run (``DcfStation.flush``); a run without a station has none.
    """

    def __init__(self) -> None:
        self.delivered_payload_bytes = self.attempts = self.failures = self.drops = 0
        self.wifi_airtime_ns = 0

    def finalize(self, duration_ns: int, lte_airtime_ns: int) -> RunMetrics:
        # By position, in RunMetrics' field order: keywords cost its frozen init more.
        return RunMetrics(self.delivered_payload_bytes, self.attempts, self.failures, self.drops,
                          self.wifi_airtime_ns, lte_airtime_ns, duration_ns)


def throughput_mbps(m: RunMetrics) -> float:
    """Goodput over the run: delivered UDP payload bits per second, in Mbps."""
    if m.duration_ns <= 0:
        raise ValueError("run duration must be positive")
    return m.delivered_payload_bytes * 8.0 / (m.duration_ns / NS_PER_S) / 1e6


def normalized_throughput(run: RunMetrics, baseline: RunMetrics) -> float:
    """Throughput ratio against the same configuration at 0% duty cycle."""
    base = throughput_mbps(baseline)
    if base <= 0:
        raise ValueError("baseline throughput must be positive")
    return throughput_mbps(run) / base


def _quartile(ordered: list[float], q: float) -> float:
    # Inclusive linear interpolation: position q * (n - 1) into the sorted sample.
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


def box_stats(samples: list[float]) -> BoxStats:
    """Box-and-whisker reduction: quartiles, 1.5xIQR whiskers, outliers.

    Whiskers sit on the most extreme samples still within 1.5xIQR of the
    quartiles; everything beyond is returned as outliers.
    """
    if not samples:
        raise ValueError("box_stats requires at least one sample")
    ordered = sorted(map(float, samples))
    q25 = _quartile(ordered, 0.25)
    median = _quartile(ordered, 0.50)
    q75 = _quartile(ordered, 0.75)
    iqr = q75 - q25
    # The samples within the fences are a slice of the sorted ones.
    lo = bisect.bisect_left(ordered, q25 - 1.5 * iqr)
    hi = bisect.bisect_right(ordered, q75 + 1.5 * iqr)
    return BoxStats(median, q25, q75, ordered[lo], ordered[hi - 1], ordered[:lo] + ordered[hi:])
