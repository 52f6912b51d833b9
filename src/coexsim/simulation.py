"""Assembles one run: engine, shared medium, LTE node, DCF station pair.

The medium is two-valued: geometry never changes, so each direction (data
at the receiver, ACK at the transmitter) has one SINR while the LTE node is
on and one while it is off.  The LTE node's ``times`` is the one record of
the LTE schedule, "on" at even indices, and its ``passed`` counts the
transitions so far: the node's events count up, and so does a station that
steps past transitions (the node's ``advance_to``).  The LTE state, each
packet's SINR window and the run's LTE airtime all derive from the transitions
passed; what derives from the config alone is ``plan``'s.
The walk starts the run: ``run`` starts the station at its first idle instant,
0 or a deferring station's first LTE-off, and the LTE node arms only where the
station hands a cycle to the events, or in a run without a station.
References point one way (simulation, station, medium, LTE node, engine): the
LTE node's event holds the station it tells, and an event drops its callback
once it cannot fire, so a finished run is freed by reference counting.
"""

from __future__ import annotations

import bisect
import functools
from typing import NamedTuple

import numpy as np

from .config import LteSettings, RadioSettings, RunConfig, WifiSettings
from .engine import NS_PER_MS, NS_PER_S, NS_PER_US, Engine
from .lte import RNG_LABEL, LteNode, occupied_band, on_duration_ns, silent_range_ms
from .metrics import MetricsAccumulator, RunMetrics
from .radio import SpectrumBand, noise_floor_dbm, overlap_fraction, sinr_db, success_probability
from .wifi import (BACKOFF_LABEL, DECODE_LABEL, DcfStation, ack_airtime_us, ack_rate_mbps,
                   cca_busy, frame_airtime_us)


class Plan(NamedTuple):
    """What a run's set-up derives from its config alone; ``plan`` builds it."""

    medium: tuple  # defer_to_lte, then sinr_rx and sinr_tx, each (LTE off, LTE on)
    station: dict  # DcfStation's constants, by attribute name
    period: tuple  # LteNode's on time and frame alignment (ns), silent range (ms) or None
    streams: tuple  # the labels of the RNG streams a run draws from


@functools.lru_cache(maxsize=1024)  # bounded: a process may run any number of configs
def plan(lte: LteSettings, wifi: WifiSettings, radio: RadioSettings) -> Plan:
    """What set-up derives from the config alone, once per config and shared by its
    runs, so arrays are read-only; each run builds its engine, streams and state."""
    gain_lte_tx, gain_lte_rx, gain_link = radio.link_gains()
    wifi_band, lte_band = SpectrumBand(0.0, radio.wifi_bandwidth_mhz), occupied_band(lte)
    noise = noise_floor_dbm(radio.wifi_bandwidth_mhz, radio.noise_figure_db)
    cca, lte_at_sensor = wifi.cca(), lte.tx_power_dbm + gain_lte_tx
    defer_to_lte = cca_busy(cca, lte_at_sensor, lte_band, wifi_band, radio.oob_floor_dbc)
    # Receiver-side interference integrates over the demodulated channel.
    # The peer's ACK comes at the same configured WiFi power over the
    # reciprocal link, decoded where the LTE sits 34 cm away.
    rx_fraction = overlap_fraction(lte_band, wifi_band, radio.oob_floor_dbc)
    signal = wifi.tx_power_dbm + gain_link
    clear = sinr_db(signal, [], noise)
    sinr_rx = (clear, sinr_db(signal, [(lte.tx_power_dbm + gain_lte_rx, rx_fraction)], noise))
    sinr_tx = (clear, sinr_db(signal, [(lte_at_sensor, rx_fraction)], noise))
    mcs, slope_k = wifi.mcs_mbps, radio.soft_slope_k
    data_air_ns = frame_airtime_us(mcs, wifi.payload_bytes, wifi) * NS_PER_US
    ack_air_ns = ack_airtime_us(mcs, wifi) * NS_PER_US
    data_threshold_db = radio.threshold_db(mcs)
    ack_threshold_db = radio.threshold_db(ack_rate_mbps(mcs, wifi))
    # The cw after j consecutive failures, each a bit wider: cw_ladder[min(j, top)].
    ladder_bits = np.arange(wifi.cw_min.bit_length(), wifi.cw_max.bit_length() + 1)
    ladder_bits.flags.writeable = False
    # (data decoded, ACK decoded, odds, decode draws) of a cycle in each LTE state, each
    # frame over one SINR segment.  odds is None when those cycles all end alike: the
    # hard PER rule, data that cannot decode, or soft odds each exactly 1.0 or None (a
    # sure failure); a soft cycle then draws once per frame sent that can decode.  Else
    # odds are the soft rule's (p_data, p_ack), drawn in chunks, and draws is None.
    outcomes = []
    for on in (False, True):
        p_data = success_probability(data_threshold_db, slope_k, [(data_air_ns, sinr_rx[on])])
        p_ack = success_probability(ack_threshold_db, slope_k, [(ack_air_ns, sinr_tx[on])])
        data_ok = p_data is not None
        ack_ok = data_ok and p_ack is not None
        outcomes.append((data_ok, ack_ok, None, (data_ok + ack_ok) * (slope_k != 0.0))
                        if not data_ok or p_data == 1.0 and p_ack in (None, 1.0)
                        else (False, False, (p_data, p_ack), None))
    ladder, period = tuple(2**b - 1 for b in ladder_bits.tolist()), max(wifi.retry_limit, 1)
    shortest_ns = (wifi.difs_us + wifi.sifs_us) * NS_PER_US + data_air_ns + ack_air_ns
    station = dict(
        cca=cca, slope_k=slope_k, payload_bytes=wifi.payload_bytes,
        slot_ns=wifi.slot_us * NS_PER_US, sifs_ns=wifi.sifs_us * NS_PER_US,
        difs_ns=wifi.difs_us * NS_PER_US,
        data_air_ns=data_air_ns, ack_air_ns=ack_air_ns, data_threshold_db=data_threshold_db,
        shortest_cycle_ns=shortest_ns, ack_threshold_db=ack_threshold_db, _outcomes=tuple(outcomes),
        _ladder_bits=ladder_bits, _cw_ladder=ladder, _retry_period=period,
        _data_clears=tuple(sinr >= data_threshold_db for sinr in sinr_rx),
        _ack_clears=tuple(sinr >= ack_threshold_db for sinr in sinr_tx),
        # An LTE that neither defers the station nor changes how a cycle ends bounds
        # no untraced step unless the cycles draw decodes.
        _feels_lte_untraced=defer_to_lte or outcomes[0] != outcomes[1] or outcomes[0][3] != 0)
    # Only a duty strictly between 0 and 1 has silent periods to draw.
    silent_ms = silent_range_ms(lte) if 0.0 < lte.duty < 1.0 else None
    return Plan((defer_to_lte, sinr_rx, sinr_tx), station,
                (on_duration_ns(lte), lte.frame_align_ms * NS_PER_MS, silent_ms),
                (RNG_LABEL,) * (silent_ms is not None) + (BACKOFF_LABEL,)
                + (DECODE_LABEL,) * (slope_k != 0.0))


class Medium:
    """Shared channel: carrier sense and SINR windows over the LTE transitions passed."""

    def __init__(self, run_plan: Plan, lte: LteNode) -> None:
        self.lte, self.end_ns = lte, lte.end_ns
        self.defer_to_lte, self.sinr_rx, self.sinr_tx = run_plan.medium

    @property
    def lte_on(self) -> bool:
        return self.lte.passed % 2 == 1

    @property
    def busy(self) -> bool:
        """Carrier-sense verdict for the station (its own TX is not sensed)."""
        return self.lte_on and self.defer_to_lte

    def _window(self, t0: int, t1: int, sinr: tuple[float, float]) -> list[tuple[int, float]]:
        """SINR over [t0, t1) as (duration_ns, sinr_db) segments, one per LTE state."""
        times, n = self.lte.times, self.lte.passed
        lo = bisect.bisect_right(times, t0, 0, n)  # the transitions inside cut the window
        cuts = [t0, *times[lo:bisect.bisect_left(times, t1, lo, n)], t1]
        return [(b - a, sinr[(lo + j) % 2]) for j, (a, b) in enumerate(zip(cuts, cuts[1:]))]

    def clears(self, t0: int, t1: int, verdicts: tuple[bool, bool]) -> bool:
        """Whether a hard-rule frame over [t0, t1) decodes, given whether its SINR
        clears the threshold with LTE off and on: ``_window``'s split, unbuilt."""
        times, n = self.lte.times, self.lte.passed
        lo = bisect.bisect_right(times, t0, 0, n)
        if lo < n and times[lo] < t1:  # a transition inside: both states
            return verdicts[0] and verdicts[1]
        return verdicts[lo % 2]


class Simulation:
    """One closed, seeded run; repeated construction reproduces it bit-exactly."""

    def __init__(self, cfg: RunConfig, seed: int | None = None, trace: bool = False,
                 include_wifi: bool = True) -> None:
        self.engine = Engine(cfg.seed if seed is None else seed, trace=trace)
        self.acc = MetricsAccumulator()
        self.duration_ns = int(round(cfg.duration_s * NS_PER_S))
        # A sweep's seed carries the plan it looked up, which spares hashing the config.
        p = getattr(seed, "plan", None) or plan(cfg.lte, cfg.wifi, cfg.radio)
        self.lte_node = LteNode(self.engine, self.duration_ns, p.period)
        self.medium = Medium(p, self.lte_node)

        self.station = None
        if include_wifi:
            self.station = DcfStation(self.engine, self.medium, p.station, self.acc)
        else:
            self.lte_node.arm()

        self.engine.schedule(self.duration_ns, "run-end", "engine", lambda: None)

    def run(self) -> RunMetrics:
        if self.station is not None:
            self.station.start()
        self.engine.run_until(self.duration_ns)
        if self.station is not None:
            self.station.flush(self.duration_ns)
        # The LTE airtime: each off less its on, and an on still open runs to the end.
        times, n = self.lte_node.times, self.lte_node.passed
        lte_airtime_ns = sum(times[1:n:2]) - sum(times[0:n:2]) + self.duration_ns * (n % 2)
        return self.acc.finalize(self.duration_ns, lte_airtime_ns)
