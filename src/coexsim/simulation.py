"""Assembles one run: engine, shared medium, LTE node, DCF station pair.

The medium precomputes the run's static link budget (geometry never changes)
and turns the LTE on/off timeline into carrier-sense callbacks and SINR
traces.  Construction order matters: the LTE node schedules its t=0 event
before the station's start event, so a duty>0 run begins with the medium
already marked busy.
"""

from __future__ import annotations

import bisect

from .config import RunConfig
from .engine import NS_PER_S, Engine
from .lte import LteNode, occupied_band
from .metrics import MetricsAccumulator, RunMetrics
from .radio import (LinkBudget, SpectrumBand, noise_floor_dbm, overlap_fraction,
                    sinr_db)
from .wifi import DcfStation, cca_busy


class Medium:
    """Shared-channel state: LTE activity timeline, busy flag, SINR traces."""

    def __init__(self, engine: Engine, cfg: RunConfig, acc: MetricsAccumulator,
                 end_ns: int) -> None:
        self.engine = engine
        self.acc = acc
        self.end_ns = end_ns
        self.station: DcfStation | None = None

        r = cfg.radio
        gain_lte_tx, gain_lte_rx, gain_link = r.link_gains()
        self.wifi_band = SpectrumBand(0.0, r.wifi_bandwidth_mhz)
        self.lte_band = occupied_band(cfg.lte)
        noise = noise_floor_dbm(r.wifi_bandwidth_mhz, r.noise_figure_db)
        profile = cfg.wifi.cca()

        lte_at_sensor = LinkBudget(cfg.lte.tx_power_dbm, gain_lte_tx).rx_power_dbm
        self.defer_to_lte = cca_busy(profile, lte_at_sensor, self.lte_band,
                                     self.wifi_band, r.oob_floor_dbc)

        # Receiver-side interference integrates over the demodulated channel.
        rx_fraction = overlap_fraction(self.lte_band, self.wifi_band, r.oob_floor_dbc)
        signal_at_rx = LinkBudget(cfg.wifi.tx_power_dbm, gain_link).rx_power_dbm
        lte_at_rx = LinkBudget(cfg.lte.tx_power_dbm, gain_lte_rx).rx_power_dbm
        self.sinr_rx_lte_on = sinr_db(signal_at_rx, [(lte_at_rx, rx_fraction)], noise)
        self.sinr_rx_lte_off = sinr_db(signal_at_rx, [], noise)

        # ACK direction: the peer answers at the same configured WiFi power
        # over the reciprocal link, decoded where the LTE sits 34 cm away.
        ack_at_tx = LinkBudget(cfg.wifi.tx_power_dbm, gain_link).rx_power_dbm
        self.sinr_tx_lte_on = sinr_db(ack_at_tx, [(lte_at_sensor, rx_fraction)], noise)
        self.sinr_tx_lte_off = sinr_db(ack_at_tx, [], noise)

        self.lte_on = False
        self.next_change_ns: int | None = None  # next scheduled LTE transition
        self._times: list[int] = []
        self._states: list[bool] = []
        self._lte_on_since = 0

    @property
    def busy(self) -> bool:
        """Carrier-sense verdict for the station (its own TX is not sensed)."""
        return self.lte_on and self.defer_to_lte

    def quiet_until(self) -> int:
        """Time of the medium's next change: the next LTE transition or the run end."""
        if self.next_change_ns is None:
            return self.end_ns
        return min(self.next_change_ns, self.end_ns)

    def lte_state_changed(self, now: int, on: bool, next_change_ns: int | None) -> None:
        """LTE switched at ``now``; its next transition is due at ``next_change_ns``."""
        self.lte_on = on
        self.next_change_ns = next_change_ns
        self._times.append(now)
        self._states.append(on)
        if on:
            self._lte_on_since = now
        else:
            self.acc.lte_intervals.append((self._lte_on_since, now))
        if self.defer_to_lte and self.station is not None:
            if on:
                self.station.busy_onset(now)
            else:
                self.station.busy_cleared(now)

    def _trace(self, t0: int, t1: int, on_value: float, off_value: float):
        from .radio import SinrTrace

        idx = bisect.bisect_right(self._times, t0) - 1
        state = self._states[idx] if idx >= 0 else False
        segments = []
        cursor = t0
        for i in range(idx + 1, len(self._times)):
            t = self._times[i]
            if t >= t1:
                break
            if t > cursor:
                segments.append((cursor, t, on_value if state else off_value))
                cursor = t
            state = self._states[i]
        segments.append((cursor, t1, on_value if state else off_value))
        return SinrTrace(segments)

    def sinr_trace_at_rx(self, t0: int, t1: int):
        return self._trace(t0, t1, self.sinr_rx_lte_on, self.sinr_rx_lte_off)

    def sinr_trace_at_tx(self, t0: int, t1: int):
        return self._trace(t0, t1, self.sinr_tx_lte_on, self.sinr_tx_lte_off)

    def flush(self, t_end_ns: int) -> None:
        if self.lte_on and self._lte_on_since < t_end_ns:
            self.acc.lte_intervals.append((self._lte_on_since, t_end_ns))


class Simulation:
    """One closed, seeded run; repeated construction reproduces it bit-exactly."""

    def __init__(self, cfg: RunConfig, seed: int | None = None, trace: bool = False,
                 include_wifi: bool = True, include_lte: bool = True) -> None:
        self.cfg = cfg
        self.engine = Engine(cfg.seed if seed is None else seed, trace=trace)
        self.acc = MetricsAccumulator()
        self.duration_ns = int(round(cfg.duration_s * NS_PER_S))
        self.medium = Medium(self.engine, cfg, self.acc, self.duration_ns)

        self.lte_node = None
        if include_lte:
            self.lte_node = LteNode(self.engine, cfg.lte, self.medium)
            self.lte_node.start()

        self.station = None
        if include_wifi:
            self.station = DcfStation(self.engine, self.medium, cfg.wifi,
                                      cfg.radio.per_model(), self.acc)
            self.medium.station = self.station
            self.station.start()

        self.engine.schedule(self.duration_ns, "run-end", "engine", lambda: None)

    def run(self) -> RunMetrics:
        self.engine.run_until(self.duration_ns)
        if self.station is not None:
            self.station.flush(self.duration_ns)
        self.medium.flush(self.duration_ns)
        return self.acc.finalize(self.duration_ns)
