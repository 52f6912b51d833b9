import dataclasses

import pytest

from coexsim.config import WifiSettings
from coexsim.engine import NS_PER_MS, NS_PER_S, NS_PER_US
from coexsim.metrics import throughput_mbps
from coexsim.radio import SpectrumBand
from coexsim.wifi import (CCA_PRESETS, CcaProfile, ack_airtime_us, ack_rate_mbps,
                          analytic_goodput_mbps, cca_busy, frame_airtime_us)

from conftest import backoffs, lte_intervals, make_cfg, run_sim, traced_emissions

PARAMS = WifiSettings()


class TestAirtime:
    def test_1500_bytes_at_54_mbps(self):
        # 20 + 4 * ceil((16 + 6 + 8*1536) / 216) = 20 + 4 * 57
        assert frame_airtime_us(54, 1500, PARAMS) == 248

    def test_1500_bytes_at_6_mbps(self):
        assert frame_airtime_us(6, 1500, PARAMS) == 2072

    def test_ack_at_24_mbps_control_rate(self):
        # 14-byte ACK: 20 + 4 * ceil((16 + 6 + 112) / 96)
        assert ack_airtime_us(54, PARAMS) == 28

    def test_ack_rate_follows_basic_rate_rule(self):
        assert ack_rate_mbps(54, PARAMS) == 24
        assert ack_rate_mbps(24, PARAMS) == 24
        assert ack_rate_mbps(18, PARAMS) == 12
        assert ack_rate_mbps(6, PARAMS) == 6

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            frame_airtime_us(54, 0, PARAMS)


class TestDcfParams:
    def test_difs_invariant_enforced(self):
        params = WifiSettings(sifs_us=10, slot_us=20)
        assert params.difs_us == params.sifs_us + 2 * params.slot_us

    def test_cw_must_be_power_of_two_minus_one(self):
        with pytest.raises(ValueError):
            WifiSettings(cw_min=16, cw_max=1023)


class TestCcaBusy:
    wifi_band = SpectrumBand(0.0, 20.0)

    def test_high_power_lte_reads_busy_at_minus_62(self):
        profile = CcaProfile(-62.0, "full20", True)
        assert cca_busy(profile, -19.4, SpectrumBand(0.0, 18.0), self.wifi_band)

    def test_measure_band_changes_integrated_energy(self):
        # 100 PRB leaks ~2.6 dB of its power outside a centered 10 MHz
        # sub-band, so a threshold between the two readings splits the
        # profiles; a 6 PRB carrier concentrates inside both bands.
        wide = SpectrumBand(0.0, 18.0)
        narrow = SpectrumBand(0.0, 1.08)
        full20 = CcaProfile(-48.5, "full20", True)
        primary10 = CcaProfile(-48.5, "primary10", True)
        assert cca_busy(full20, -47.4, wide, self.wifi_band)
        assert not cca_busy(primary10, -47.4, wide, self.wifi_band)
        assert cca_busy(full20, -47.4, narrow, self.wifi_band)
        assert cca_busy(primary10, -47.4, narrow, self.wifi_band)

    def test_presets_exist(self):
        assert {"vendor-A", "vendor-B"} <= set(CCA_PRESETS)


class TestDcfOracle:
    def test_idle_channel_goodput_matches_analytic_formula(self, idle_54_run):
        metrics, _ = idle_54_run
        analytic = analytic_goodput_mbps(54, 1500, PARAMS)
        assert analytic == pytest.approx(12000.0 / 393.5, rel=1e-12)
        assert throughput_mbps(metrics) == pytest.approx(analytic, rel=0.02)

    def test_no_failures_on_an_idle_channel(self, idle_54_run):
        metrics, _ = idle_54_run
        assert metrics.failures == 0
        assert metrics.drops == 0
        assert metrics.delivered_payload_bytes == metrics.attempts * 1500


class TestDcfMechanics:
    def test_backoff_draws_stay_in_contention_window(self):
        from coexsim.simulation import Simulation

        # Idle channel: no failures, so every draw comes from [0, cw_min].
        sim = Simulation(make_cfg(duty=0.0, duration=2.0), seed=8, trace=True)
        sim.run()
        idle_draws = backoffs("".join(sim.engine.trace))
        assert idle_draws and all(0 <= k <= 15 for k in idle_draws)

        # Forced-collision regime: windows double but never exceed cw_max.
        sim = Simulation(make_cfg(duty=1.0, lte_power=12.0, duration=1.0,
                                  cca_ed_threshold_dbm=30.0), seed=8, trace=True)
        sim.run()
        retry_draws = backoffs("".join(sim.engine.trace))
        assert retry_draws and all(0 <= k <= 1023 for k in retry_draws)
        assert max(retry_draws) > 15  # binary exponential growth kicked in

    def test_ack_begins_exactly_sifs_after_data_end(self):
        cfg = make_cfg(duty=0.0, duration=0.1)
        metrics, sim = run_sim(cfg, seed=8, trace=True)
        intervals = traced_emissions(sim)
        data_air = 248 * NS_PER_US
        # Intervals alternate data, ack, data, ack, ...
        for (d0, d1), (a0, a1) in zip(intervals[0::2], intervals[1::2]):
            assert d1 - d0 == data_air
            assert a0 - d1 == 16 * NS_PER_US
            assert a1 - a0 == 28 * NS_PER_US

    def test_work_conservation_on_idle_channel(self):
        cfg = make_cfg(duty=0.0, duration=1.0)
        metrics, sim = run_sim(cfg, seed=8)
        station = sim.station
        acks = metrics.delivered_payload_bytes // 1500
        accounted = (station.difs_completed * 34 * NS_PER_US
                     + station.backoff_slots_elapsed * 9 * NS_PER_US
                     + metrics.attempts * 248 * NS_PER_US
                     + acks * (16 + 28) * NS_PER_US)
        residual = metrics.duration_ns - accounted
        # The cut-off cycle may be counted at full airtime (attempts increment
        # at TX start), so the residual can undershoot by one data frame.
        max_cycle_ns = (34 + 15 * 9 + 248 + 16 + 28 + 9) * NS_PER_US
        assert -248 * NS_PER_US <= residual <= max_cycle_ns

    def test_station_defers_while_lte_above_threshold(self):
        # 12 dBm LTE reads -19.4 dBm at the sensor, far above vendor-A's
        # threshold: no transmission may start inside an on-period.
        cfg = make_cfg(duty=0.5, lte_power=12.0, duration=3.0)
        metrics, sim = run_sim(cfg, seed=8, trace=True)
        on_intervals = lte_intervals(sim.medium)
        data_air_ns = 248 * NS_PER_US
        data_starts = [a for a, b in traced_emissions(sim) if b - a == data_air_ns]
        assert data_starts
        for start in data_starts:
            # ACKs are exempt from carrier sense; data frames must defer.
            assert not any(a <= start < b for a, b in on_intervals)

    def test_station_ignores_lte_below_threshold(self):
        # -16 dBm LTE reads -47.4 dBm, below vendor-A's -40: transmissions
        # continue during on-periods and (at MCS 6) survive via capture.
        cfg = make_cfg(duty=0.5, lte_power=-16.0, mcs=6, duration=3.0)
        metrics, sim = run_sim(cfg, seed=8, trace=True)
        on_intervals = lte_intervals(sim.medium)
        started_during_on = sum(
            1 for start, _ in traced_emissions(sim)
            if any(a <= start < b for a, b in on_intervals))
        assert started_during_on > 0
        assert metrics.failures == 0

    def test_seven_consecutive_failures_drop_the_packet(self):
        # Continuous 12 dBm LTE with carrier sensing disabled: every attempt
        # collides, so packets cycle through exactly retry_limit failures.
        cfg = make_cfg(duty=1.0, lte_power=12.0, duration=2.0,
                       cca_ed_threshold_dbm=30.0)
        metrics, _ = run_sim(cfg, seed=8)
        assert metrics.delivered_payload_bytes == 0
        assert metrics.attempts == metrics.failures
        assert metrics.drops == metrics.failures // 7
        assert metrics.failures > 14

    def test_retry_backoff_expands_then_resets_after_drop(self):
        cfg = make_cfg(duty=1.0, lte_power=12.0, duration=2.0,
                       cca_ed_threshold_dbm=30.0)
        _, sim = run_sim(cfg, seed=8)
        # After a full drop cycle the contention window is back at cw_min.
        assert sim.station.cw in (15, 31, 63, 127, 255, 511, 1023)
        assert sim.station.consecutive_failures < 7

    def test_vendor_profiles_agree_at_full_overlap_high_power(self):
        results = {}
        for profile in ("vendor-A", "vendor-B"):
            cfg = make_cfg(duty=0.5, lte_power=12.0, duration=3.0, profile=profile)
            metrics, _ = run_sim(cfg, seed=8)
            results[profile] = throughput_mbps(metrics)
        a, b = results["vendor-A"], results["vendor-B"]
        assert abs(a - b) / a <= 0.02
