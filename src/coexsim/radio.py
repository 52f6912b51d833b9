"""Link budgets, spectral overlap, SINR, and packet-reception decisions.

Everything here is a pure function over value types; both technologies share
these primitives.  Powers are dBm, gains dB (negative = loss), frequencies
relative MHz unless stated otherwise.

A packet decodes by one rule with two settings of the slope k: at k = 0 (the
hard rule) iff its minimum SINR clears the MCS threshold, with no random
draw; at k > 0 (the soft rule) with a sigmoid probability per segment, one
uniform draw per packet deciding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 802.11a OFDM rates and the hard-decision SINR thresholds used by default.
# Thresholds are configurable; they only need to be strictly increasing in rate.
DEFAULT_PER_THRESHOLDS_DB = {6: 5.0, 9: 6.0, 12: 7.0, 18: 10.0, 24: 13.0,
                             36: 18.0, 48: 23.0, 54: 25.0}


def mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def dbm(milliwatts: float) -> float:
    return 10.0 * math.log10(milliwatts)


@dataclass(frozen=True, slots=True)
class SpectrumBand:
    """Occupied-spectrum interval [center - width/2, center + width/2] in MHz."""

    center_mhz: float
    width_mhz: float

    def __post_init__(self) -> None:
        if self.width_mhz <= 0:
            raise ValueError(f"band width must be positive, got {self.width_mhz}")

    @property
    def low_mhz(self) -> float:
        return self.center_mhz - self.width_mhz / 2.0

    @property
    def high_mhz(self) -> float:
        return self.center_mhz + self.width_mhz / 2.0


def fspl_db(distance_m: float, freq_ghz: float) -> float:
    """Free-space path loss, 20 log10(d_km) + 20 log10(f_GHz) + 92.45 dB."""
    if distance_m <= 0 or freq_ghz <= 0:
        raise ValueError("distance and frequency must be positive")
    return 20.0 * math.log10(distance_m / 1000.0) + 20.0 * math.log10(freq_ghz) + 92.45


def overlap_fraction(interferer: SpectrumBand, victim: SpectrumBand,
                     oob_floor_dbc: float = -30.0) -> float:
    """Fraction of interferer power landing in the victim band.

    Flat in-band PSD: |intersection| / interferer width, floored by the linear
    equivalent of ``oob_floor_dbc`` so widely separated bands still leak a
    configurable residue (and the result stays monotone in |offset|).
    """
    intersection = min(interferer.high_mhz, victim.high_mhz) - max(
        interferer.low_mhz, victim.low_mhz)
    fraction = max(intersection, 0.0) / interferer.width_mhz
    return max(fraction, 10.0 ** (oob_floor_dbc / 10.0))


def noise_floor_dbm(bandwidth_mhz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz integrated over the bandwidth, plus NF."""
    if bandwidth_mhz <= 0:
        raise ValueError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(bandwidth_mhz * 1e6) + noise_figure_db


def sinr_db(signal_dbm: float, interferers: list[tuple[float, float]],
            noise_dbm: float) -> float:
    """SINR with each interferer weighted by its spectral overlap fraction.

    ``interferers`` is a list of (power_dbm, overlap_fraction) pairs.
    """
    denominator_mw = mw(noise_dbm)
    for power_dbm, fraction in interferers:
        denominator_mw += fraction * mw(power_dbm)
    return dbm(mw(signal_dbm) / denominator_mw)


def success_probability(threshold_db: float, slope_k: float,
                        segments: list[tuple[int, float]]) -> float | None:
    """Probability that a packet over these SINR segments decodes; None if it
    surely fails.

    ``segments`` is the SINR over the reception window as consecutive
    (duration_ns, sinr_db) pieces.  The hard rule (``slope_k == 0``) gives
    1.0 iff every segment clears ``threshold_db``, else None.  The soft rule
    decodes each segment independently with probability
    sigmoid(slope_k * (sinr - threshold)) ** ms, where ms is its length in
    milliseconds, fractional (a 0.25 ms segment takes the 0.25th power); the
    packet succeeds iff all segments do.  It gives None when some segment's
    sigmoid is 0.
    """
    if slope_k == 0.0:
        return 1.0 if min(sinr for _, sinr in segments) >= threshold_db else None
    log_p = 0.0
    for duration_ns, sinr in segments:
        try:
            p = 1.0 / (1.0 + math.exp(-slope_k * (sinr - threshold_db)))
        except OverflowError:  # the sigmoid is below the smallest float
            p = 0.0
        if p <= 0.0:
            return None
        log_p += (duration_ns / 1e6) * math.log(p)
    return math.exp(log_p)


def packet_outcome(threshold_db: float, slope_k: float, segments: list[tuple[int, float]],
                   rng: np.random.Generator | None) -> bool:
    """True iff the packet decodes: one uniform draw against
    ``success_probability`` under the soft rule.  The hard rule and a sure
    failure draw nothing, so the hard rule accepts ``rng=None``.
    """
    p = success_probability(threshold_db, slope_k, segments)
    return p is not None and (slope_k == 0.0 or float(rng.uniform()) < p)
