import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim.config import ConfigError, RadioSettings
from coexsim.engine import Engine
from coexsim.radio import (DEFAULT_PER_THRESHOLDS_DB, SpectrumBand, dbm, fspl_db, mw,
                           noise_floor_dbm, overlap_fraction, packet_outcome, sinr_db,
                           success_probability)

SPEED_OF_LIGHT = 299_792_458.0


def fspl_oracle(distance_m: float, freq_ghz: float) -> float:
    # Exact free-space form 20 log10(4 pi d f / c); the 92.45 constant is its
    # (d in km, f in GHz) specialization.
    return 20.0 * math.log10(4.0 * math.pi * distance_m * freq_ghz * 1e9 / SPEED_OF_LIGHT)


class TestFspl:
    def test_testbed_geometry_values(self):
        assert fspl_db(0.94, 5.18) == pytest.approx(46.2, abs=0.05)
        assert fspl_db(0.35, 5.18) == pytest.approx(37.6, abs=0.05)

    def test_reference_point_1km_1ghz(self):
        assert fspl_db(1000.0, 1.0) == pytest.approx(92.45, abs=1e-9)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fspl_db(0.0, 5.18)
        with pytest.raises(ValueError):
            fspl_db(1.0, -1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1e5),
           st.floats(min_value=0.1, max_value=100.0))
    def test_matches_exact_free_space_form(self, d, f):
        assert fspl_db(d, f) == pytest.approx(fspl_oracle(d, f), abs=0.01)


class TestOverlapFraction:
    def test_contained_interferer_is_total(self):
        lte = SpectrumBand(0.0, 18.0)
        wifi = SpectrumBand(0.0, 20.0)
        assert overlap_fraction(lte, wifi) == 1.0

    def test_half_overlap_at_ten_mhz_offset(self):
        lte = SpectrumBand(10.0, 18.0)
        wifi = SpectrumBand(0.0, 20.0)
        assert overlap_fraction(lte, wifi) == 0.5  # 9 MHz of 18 land in band

    def test_empty_intersection_floors_at_oob_leakage(self):
        lte = SpectrumBand(20.0, 18.0)
        wifi = SpectrumBand(0.0, 20.0)
        assert overlap_fraction(lte, wifi, oob_floor_dbc=-30.0) == pytest.approx(
            0.001, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=0.5, max_value=40.0),
           st.floats(min_value=0.5, max_value=40.0))
    def test_symmetric_in_offset_sign(self, offset, w_int, w_vic):
        victim = SpectrumBand(0.0, w_vic)
        plus = overlap_fraction(SpectrumBand(offset, w_int), victim)
        minus = overlap_fraction(SpectrumBand(-offset, w_int), victim)
        assert plus == pytest.approx(minus, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=2, max_size=8),
           st.floats(min_value=0.5, max_value=40.0),
           st.floats(min_value=0.5, max_value=40.0))
    def test_non_increasing_in_offset_magnitude(self, offsets, w_int, w_vic):
        victim = SpectrumBand(0.0, w_vic)
        fractions = [overlap_fraction(SpectrumBand(off, w_int), victim)
                     for off in sorted(offsets)]
        for earlier, later in zip(fractions, fractions[1:]):
            assert later <= earlier + 1e-12

    def test_band_validation(self):
        with pytest.raises(ValueError):
            SpectrumBand(0.0, 0.0)


class TestNoiseFloor:
    def test_twenty_mhz_seven_db_nf(self):
        # -174 + 10 log10(20e6) + 7 computed independently:
        oracle = -174.0 + 10.0 * math.log10(20e6) + 7.0
        assert noise_floor_dbm(20.0, 7.0) == pytest.approx(oracle, abs=1e-12)
        assert noise_floor_dbm(20.0, 7.0) == pytest.approx(-94.0, abs=0.05)

    def test_one_hz_definition(self):
        assert noise_floor_dbm(1e-6, 0.0) == pytest.approx(-174.0, abs=1e-9)

    def test_twenty_mhz_no_nf(self):
        assert noise_floor_dbm(20.0, 0.0) == pytest.approx(-101.0, abs=0.05)


class TestSinr:
    def test_no_interferers_is_snr(self):
        assert sinr_db(-23.2, [], -94.0) == pytest.approx(70.8, abs=0.05)

    def test_strong_interferer_drives_sinr_negative(self):
        # Independent oracle in plain milliwatt arithmetic.
        oracle = 10 * math.log10(10 ** (-2.32) / (10 ** (-9.4) + 10 ** (-1.96)))
        got = sinr_db(-23.2, [(-19.6, 1.0)], -94.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(-3.6, abs=0.05)

    def test_zero_overlap_interferer_is_ignored(self):
        assert sinr_db(-23.2, [(-19.6, 0.0)], -94.0) == sinr_db(-23.2, [], -94.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-90, max_value=20),
           st.floats(min_value=-90, max_value=20),
           st.floats(min_value=0.001, max_value=1.0))
    def test_adding_an_interferer_never_raises_sinr(self, sig, intf, frac):
        clean = sinr_db(sig, [], -94.0)
        dirty = sinr_db(sig, [(intf, frac)], -94.0)
        assert dirty < clean

    def test_mw_dbm_round_trip(self):
        for x in (-94.0, -23.2, 0.0, 12.0, 70.8):
            assert dbm(mw(x)) == pytest.approx(x, rel=1e-9)


def flat_trace(sinr, duration_ns=248_000):
    return [(duration_ns, sinr)]


T = DEFAULT_PER_THRESHOLDS_DB  # the default threshold of each MCS


class TestPacketOutcome:
    def setup_method(self):
        self.rng = Engine(seed=1).rng_stream("decode")

    def test_high_sinr_succeeds_for_every_mcs(self):
        for rate in (6, 9, 12, 18, 24, 36, 48, 54):
            assert packet_outcome(T[rate], 0.0, flat_trace(70.0), self.rng)

    def test_mid_packet_interference_fails_hard_threshold(self):
        trace = [(100_000, 70.0), (148_000, -3.6)]
        assert not packet_outcome(T[54], 0.0, trace, self.rng)

    def test_hard_rule_reads_the_worst_segment(self):
        # 54 Mbps needs 25 dB: a dip in the middle segment decides.
        assert not packet_outcome(T[54], 0.0, [(10, 30.0), (20, 24.0), (10, 30.0)], None)
        assert packet_outcome(T[54], 0.0, [(10, 30.0), (20, 26.0), (10, 30.0)], None)

    def test_capture_asymmetry_at_24_4_db(self):
        # Thresholds: 6 Mbps at 5 dB (clears), 54 Mbps at 25 dB (does not).
        assert packet_outcome(T[6], 0.0, flat_trace(24.4), self.rng)
        assert not packet_outcome(T[54], 0.0, flat_trace(24.4), self.rng)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-20, max_value=60), min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=30.0),
           st.sampled_from([6, 12, 24, 54]))
    def test_hard_threshold_is_monotone_in_sinr(self, sinrs, bump, rate):
        lo = [(10_000, s) for s in sinrs]
        hi = [(10_000, s + bump) for s in sinrs]
        if packet_outcome(T[rate], 0.0, lo, self.rng):
            assert packet_outcome(T[rate], 0.0, hi, self.rng)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10**7), st.floats(-300.0, 300.0)),
                    min_size=1, max_size=8),
           st.floats(-300.0, 300.0), st.integers(0, 2**32))
    def test_hard_rule_is_the_minimum_and_draws_nothing(self, segments, threshold, seed):
        # Oracle for the merged rule at slope 0: the worst segment decides,
        # and a generator passed in is left as it was.
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        assert packet_outcome(threshold, 0.0, segments, rng) == (
            min(sinr for _, sinr in segments) >= threshold)
        assert rng.bit_generator.state == before

    def test_soft_model_is_probabilistic_and_seeded(self):
        rng_a = Engine(seed=3).rng_stream("decode")
        rng_b = Engine(seed=3).rng_stream("decode")
        outcomes_a = [packet_outcome(T[54], 2.0, flat_trace(25.0), rng_a)
                      for _ in range(64)]
        outcomes_b = [packet_outcome(T[54], 2.0, flat_trace(25.0), rng_b)
                      for _ in range(64)]
        assert outcomes_a == outcomes_b
        assert any(outcomes_a) and not all(outcomes_a)  # at threshold, mixed


class TestPerSettings:
    def test_default_thresholds_strictly_increase_with_rate(self):
        thresholds = [T[r] for r in sorted(T)]
        assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
        assert RadioSettings().threshold_db(54) == T[54]

    def test_non_monotone_thresholds_rejected(self):
        # 9 Mbps at 5 dB ties 6 Mbps's default threshold.
        with pytest.raises(ConfigError, match=r"^radio\.per_thresholds must .*increasing"):
            RadioSettings(per_thresholds="9:5")

    def test_positive_oob_floor_rejected(self):
        with pytest.raises(ConfigError, match=r"^radio\.oob_floor_dbc must be <= 0"):
            RadioSettings(oob_floor_dbc=3.0)


class TestSoftRuleOverflow:
    def test_steep_slope_far_below_threshold_fails_without_overflow(self):
        # exp(40 * 25) overflows a float; the packet simply does not decode.
        rng = Engine(seed=1).rng_stream("decode")
        assert not packet_outcome(T[54], 40.0, flat_trace(0.0), rng)
        assert packet_outcome(T[54], 40.0, flat_trace(60.0), rng)

    def test_outcomes_at_k2_are_unchanged(self):
        # Outcomes pinned from the formula before the overflow guard existed.
        rng = np.random.default_rng(2024)
        bits = []
        for i in range(96):
            sinr = 23.0 + 0.05 * i
            trace = [(248_000, sinr), (2_072_000, sinr + 2.0)]
            bits.append("1" if packet_outcome(T[54], 2.0, trace, rng) else "0")
        assert "".join(bits) == ("000001110100101000011110110111110101100111011111"
                                 "111111111111111111111111111111111111111111111111")
        assert rng.integers(0, 1 << 30) == 12559720


class TestSuccessProbability:
    def test_segment_decodes_per_fractional_millisecond(self):
        # A 0.25 ms segment counts a quarter of a millisecond, not a whole one.
        sigmoid = 1.0 / (1.0 + math.exp(-2.0 * (26.0 - 25.0)))
        quarter = [(250_000, 26.0)]
        assert success_probability(T[54], 2.0, quarter) == pytest.approx(
            sigmoid ** 0.25, rel=1e-12)
        split = [(250_000, 26.0), (1_000_000, 26.0)]
        assert success_probability(T[54], 2.0, split) == pytest.approx(
            sigmoid ** 1.25, rel=1e-12)

    def test_sure_failure_is_none(self):
        assert success_probability(T[54], 40.0, flat_trace(0.0)) is None
        assert success_probability(T[54], 40.0, flat_trace(60.0)) == 1.0

    def test_hard_rule_is_certain_or_none(self):
        assert success_probability(T[54], 0.0, [(10, 30.0), (20, 25.0)]) == 1.0
        assert success_probability(T[54], 0.0, [(10, 30.0), (20, 24.9)]) is None

    def test_outcome_draws_once_against_the_probability(self):
        trace = flat_trace(25.5)
        p = success_probability(T[54], 2.0, trace)
        rng, reference = (np.random.default_rng(7) for _ in range(2))
        outcomes = [packet_outcome(T[54], 2.0, trace, rng) for _ in range(32)]
        assert outcomes == [u < p for u in reference.uniform(size=32)]
        assert rng.bit_generator.state == reference.bit_generator.state
