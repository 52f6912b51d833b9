"""Per-run counters and statistical reductions (throughput, box-plot stats)."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class BoxStats:
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
        self.delivered_payload_bytes = 0
        self.attempts = 0
        self.failures = 0
        self.drops = 0
        self.wifi_airtime_ns = 0

    def finalize(self, duration_ns: int, lte_airtime_ns: int) -> RunMetrics:
        return RunMetrics(
            delivered_payload_bytes=self.delivered_payload_bytes,
            attempts=self.attempts,
            failures=self.failures,
            drops=self.drops,
            wifi_airtime_ns=self.wifi_airtime_ns,
            lte_airtime_ns=lte_airtime_ns,
            duration_ns=duration_ns,
        )


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
    ordered = sorted(float(s) for s in samples)
    q25 = _quartile(ordered, 0.25)
    median = _quartile(ordered, 0.50)
    q75 = _quartile(ordered, 0.75)
    iqr = q75 - q25
    lo_fence = q25 - 1.5 * iqr
    hi_fence = q75 + 1.5 * iqr
    inside = [s for s in ordered if lo_fence <= s <= hi_fence]
    outliers = [s for s in ordered if s < lo_fence or s > hi_fence]
    return BoxStats(median, q25, q75, inside[0], inside[-1], outliers)

