"""Simulator of duty-cycled unlicensed-LTE / 802.11 DCF coexistence, walked in closed form.

A single LTE base station radiates on a periodic, randomized on/off schedule
(no carrier sensing) while a saturated 802.11a transmitter/receiver pair runs
DCF on the same channel.  The package reproduces the classic coexistence
sweeps (duty cycle, LTE transmit power, LTE bandwidth, center-frequency
offset) as deterministic, seed-reproducible experiments with CSV output.
"""

from .engine import Engine
from .metrics import BoxStats, RunMetrics, box_stats, normalized_throughput, throughput_mbps

__all__ = [
    "Engine",
    "RunMetrics",
    "BoxStats",
    "throughput_mbps",
    "normalized_throughput",
    "box_stats",
]

__version__ = "0.1.0"
