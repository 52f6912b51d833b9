"""Assembles one run: engine, shared medium, LTE node, DCF station pair.

The medium is two-valued: geometry never changes, so each direction (data
at the receiver, ACK at the transmitter) has one SINR while the LTE node is
on and one while it is off.  ``Medium.lte_times`` records the LTE
transitions so far, "on" at even indices: the LTE node's events append to it,
and so does an untraced station that steps past transitions (the LTE node's
``advance_to``).  The LTE state, each packet's SINR window and the run's LTE
airtime all derive from it.  Construction order matters: the LTE node draws
its schedule and schedules its t=0 event before the station's start event, so
a duty>0 run begins with the medium already marked busy.
"""

from __future__ import annotations

import bisect

from .config import RunConfig
from .engine import NS_PER_S, Engine
from .lte import LteNode, occupied_band
from .metrics import MetricsAccumulator, RunMetrics
from .radio import SpectrumBand, noise_floor_dbm, overlap_fraction, sinr_db
from .wifi import DcfStation, cca_busy


class Medium:
    """Shared channel: the LTE schedule so far, carrier sense and SINR windows."""

    def __init__(self, cfg: RunConfig, end_ns: int) -> None:
        self.end_ns = end_ns
        self.station: DcfStation | None = None
        self.lte: LteNode | None = None
        self.lte_times: list[int] = []  # LTE transitions so far, "on" at even indices

        r = cfg.radio
        gain_lte_tx, gain_lte_rx, gain_link = r.link_gains()
        wifi_band = SpectrumBand(0.0, r.wifi_bandwidth_mhz)
        lte_band = occupied_band(cfg.lte)
        noise = noise_floor_dbm(r.wifi_bandwidth_mhz, r.noise_figure_db)

        lte_at_sensor = cfg.lte.tx_power_dbm + gain_lte_tx
        self.defer_to_lte = cca_busy(cfg.wifi.cca(), lte_at_sensor, lte_band, wifi_band,
                                     r.oob_floor_dbc)

        # Receiver-side interference integrates over the demodulated channel.
        # The peer's ACK comes at the same configured WiFi power over the
        # reciprocal link, decoded where the LTE sits 34 cm away.  Each pair
        # is (LTE off, LTE on).
        rx_fraction = overlap_fraction(lte_band, wifi_band, r.oob_floor_dbc)
        signal = cfg.wifi.tx_power_dbm + gain_link
        lte_at_rx = cfg.lte.tx_power_dbm + gain_lte_rx
        clear = sinr_db(signal, [], noise)
        self.sinr_rx = (clear, sinr_db(signal, [(lte_at_rx, rx_fraction)], noise))
        self.sinr_tx = (clear, sinr_db(signal, [(lte_at_sensor, rx_fraction)], noise))

    @property
    def lte_on(self) -> bool:
        return len(self.lte_times) % 2 == 1

    @property
    def busy(self) -> bool:
        """Carrier-sense verdict for the station (its own TX is not sensed)."""
        return self.lte_on and self.defer_to_lte

    def quiet_until(self) -> int:
        """The next LTE transition or the run end: a step's horizon if the station feels LTE."""
        next_ns = None if self.lte is None else self.lte.next_ns
        return self.end_ns if next_ns is None else min(next_ns, self.end_ns)

    def lte_switched(self, now: int) -> None:
        """Record an LTE transition at ``now`` and tell a deferring station."""
        self.lte_times.append(now)
        if self.defer_to_lte and self.station is not None:
            if self.lte_on:
                self.station.busy_onset(now)
            else:
                self.station.busy_cleared(now)

    def lte_intervals(self) -> list[tuple[int, int]]:
        """The LTE on-periods so far as (t0, t1) pairs; one still open ends at the run end."""
        times = self.lte_times + [self.end_ns] * (len(self.lte_times) % 2)
        return list(zip(times[0::2], times[1::2]))

    def _window(self, t0: int, t1: int, sinr: tuple[float, float]) -> list[tuple[int, float]]:
        """SINR over [t0, t1) as (duration_ns, sinr_db) segments, one per LTE state."""
        times = self.lte_times
        lo = bisect.bisect_right(times, t0)  # the transitions inside cut the window
        cuts = [t0, *times[lo:bisect.bisect_left(times, t1, lo)], t1]
        return [(b - a, sinr[(lo + j) % 2]) for j, (a, b) in enumerate(zip(cuts, cuts[1:]))]

    def sinr_trace_at_rx(self, t0: int, t1: int) -> list[tuple[int, float]]:
        return self._window(t0, t1, self.sinr_rx)

    def sinr_trace_at_tx(self, t0: int, t1: int) -> list[tuple[int, float]]:
        return self._window(t0, t1, self.sinr_tx)


class Simulation:
    """One closed, seeded run; repeated construction reproduces it bit-exactly."""

    def __init__(self, cfg: RunConfig, seed: int | None = None, trace: bool = False,
                 include_wifi: bool = True, include_lte: bool = True) -> None:
        self.cfg = cfg
        self.engine = Engine(cfg.seed if seed is None else seed, trace=trace)
        self.acc = MetricsAccumulator()
        self.duration_ns = int(round(cfg.duration_s * NS_PER_S))
        self.medium = Medium(cfg, self.duration_ns)

        self.lte_node = None
        if include_lte:
            self.lte_node = self.medium.lte = LteNode(self.engine, cfg.lte, self.medium)
            self.lte_node.start()

        self.station = None
        if include_wifi:
            self.station = DcfStation(self.engine, self.medium, cfg.wifi, cfg.radio,
                                      self.acc)
            self.medium.station = self.station
            self.station.start()

        self.engine.schedule(self.duration_ns, "run-end", "engine", lambda: None)

    def run(self) -> RunMetrics:
        self.engine.run_until(self.duration_ns)
        if self.station is not None:
            self.station.flush(self.duration_ns)
        lte_airtime_ns = sum(t1 - t0 for t0, t1 in self.medium.lte_intervals())
        return self.acc.finalize(self.duration_ns, lte_airtime_ns)
