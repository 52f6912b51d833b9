"""Link budgets, spectral overlap, SINR, and packet-reception decisions.

Everything here is a pure function over value types; both technologies share
these primitives.  Powers are dBm, gains dB (negative = loss), frequencies
relative MHz unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PerModel:
    """Packet-error behavior: per-MCS SINR thresholds plus optional soft transition.

    soft_slope_k = 0 selects the hard rule (success iff min SINR >= threshold).
    oob_floor_dbc is the out-of-band leakage floor relative to in-band PSD.
    """

    per_mcs_threshold_db: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_PER_THRESHOLDS_DB))
    soft_slope_k: float = 0.0
    oob_floor_dbc: float = -30.0

    def __post_init__(self) -> None:
        if self.oob_floor_dbc > 0:
            raise ValueError("oob_floor_dbc must be <= 0")
        rates = sorted(self.per_mcs_threshold_db)
        thresholds = [self.per_mcs_threshold_db[r] for r in rates]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("PER thresholds must be strictly increasing with MCS rate")

    def threshold_db(self, mcs_mbps: int) -> float:
        return self.per_mcs_threshold_db[mcs_mbps]


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


def success_probability(mcs_mbps: int, segments: list[tuple[int, float]],
                        model: PerModel) -> float | None:
    """Soft-rule probability that the packet decodes; None if it surely fails.

    ``segments`` is the SINR over the reception window as consecutive
    (duration_ns, sinr_db) pieces.  Each decodes independently with
    probability sigmoid(k * (sinr - threshold)) ** ms, where ms is its length
    in milliseconds, fractional (a 0.25 ms segment takes the 0.25th power);
    the packet succeeds iff all segments do.  None means some segment's
    sigmoid is 0, so the packet fails with no draw.
    """
    threshold = model.threshold_db(mcs_mbps)
    log_p = 0.0
    for duration_ns, sinr in segments:
        try:
            p = 1.0 / (1.0 + math.exp(-model.soft_slope_k * (sinr - threshold)))
        except OverflowError:  # the sigmoid is below the smallest float
            p = 0.0
        if p <= 0.0:
            return None
        log_p += (duration_ns / 1e6) * math.log(p)
    return math.exp(log_p)


def packet_outcome(mcs_mbps: int, segments: list[tuple[int, float]], model: PerModel,
                   rng: np.random.Generator | None) -> bool:
    """True iff the packet decodes.

    Hard rule (soft_slope_k = 0): success iff the minimum SINR over the
    segments clears the MCS threshold.  Soft rule: one uniform draw against
    ``success_probability``, none when that is None.  Deterministic given the
    rng stream, which only the soft rule draws from (the hard rule accepts
    None).
    """
    if model.soft_slope_k == 0.0:
        return min(sinr for _, sinr in segments) >= model.threshold_db(mcs_mbps)
    p = success_probability(mcs_mbps, segments, model)
    return p is not None and float(rng.uniform()) < p
